"""The table-driven planner against a frozen model-direct reference.

``partition()`` and ``repair_plan`` share one path over the per-tile cost
table, so "repaired equals scratch" no longer checks the scorer against
anything independent.  This file does: ``reference_score`` re-runs the
analytical model for each assignment's first-of-type masks and applies
the final-runtime formulas directly, the way the scorer worked before it
read the table, and ``reference_assignment`` sweeps the model's
maximum-reuse costs directly.  Every comparison is exact (``==``).

It also pins how often planning calls the model: the cost table is four
``AnalyticalModel.tile_costs`` calls, and a lineage seeded from a result
reuses that result's table instead of re-modeling.
"""

import numpy as np
import pytest

from repro.arch.configs import piuma, spade_sextans, spade_sextans_pcie
from repro.core import contention
from repro.core.model import AnalyticalModel
from repro.core.partition import (
    ExecutionMode,
    Heuristic,
    HotTilesPartitioner,
    PredictedTotals,
    exhaustive_partition,
    first_of_type_masks,
    plan_cache_from,
)
from repro.core.traits import WorkerKind
from repro.sparse.matrix import SparseMatrix
from repro.sparse.tiling import TiledMatrix
from repro.streaming.lineage import MatrixLineage
from tests.core.test_partition import tiny_arch

MATRICES = ["small_rmat", "small_uniform", "small_banded", "tiny_matrix"]
ARCHES = {
    "spade_sextans": lambda: spade_sextans(4),
    "spade_sextans_pcie": lambda: spade_sextans_pcie(4),
    "piuma": piuma,
}
_MODE = {
    Heuristic.MIN_TIME_PARALLEL: ExecutionMode.PARALLEL,
    Heuristic.MIN_TIME_SERIAL: ExecutionMode.SERIAL,
    Heuristic.MIN_BYTE_PARALLEL: ExecutionMode.PARALLEL,
    Heuristic.MIN_BYTE_SERIAL: ExecutionMode.SERIAL,
}


def reference_score(partitioner, tiled, assignment, mode):
    """``(scorer time, naive time, totals)`` straight from the model."""
    arch, model = partitioner.arch, partitioner.model
    assignment = np.asarray(assignment, dtype=bool)
    hot_first, cold_first = first_of_type_masks(tiled, assignment)
    hot = model.tile_costs(tiled, arch.hot.traits, first_mask=hot_first)
    cold = model.tile_costs(tiled, arch.cold.traits, first_mask=cold_first)
    any_hot = bool(assignment.any())
    any_cold = bool((~assignment).any())
    t_merge = 0.0
    if mode is ExecutionMode.PARALLEL and any_hot and any_cold:
        t_merge = arch.merge_time_s(tiled.matrix.n_rows)
    totals = PredictedTotals(
        th_total=hot.total_time(assignment) / arch.hot.count if any_hot else 0.0,
        tc_total=cold.total_time(~assignment) / arch.cold.count if any_cold else 0.0,
        bh_total=hot.total_bytes(assignment) if any_hot else 0.0,
        bc_total=cold.total_bytes(~assignment) if any_cold else 0.0,
        t_merge=t_merge,
    )
    serial = mode is ExecutionMode.SERIAL
    naive_s = contention.naive_runtime(arch, totals, serial)
    if not (partitioner.contention_aware and arch.pcie_bw_bytes_per_sec is not None):
        return naive_s, naive_s, totals
    hot_floor, cold_floor = contention.group_floors(
        arch, hot.time_s, cold.time_s,
        tiled.stats.uniq_rids, tiled.stats.tile_row, assignment,
    )
    time_s = contention.contended_runtime(
        arch, totals, serial, hot_floor=hot_floor, cold_floor=cold_floor
    )
    return time_s, naive_s, totals


def reference_assignment(partitioner, tiled, heuristic):
    """One heuristic's cutoff sweep over freshly modeled max-reuse costs."""
    arch, model = partitioner.arch, partitioner.model
    hot = model.tile_costs(tiled, arch.hot.traits)
    cold = model.tile_costs(tiled, arch.cold.traits)

    def prefix(v):
        return np.concatenate(([0.0], np.cumsum(v)))

    if heuristic in (Heuristic.MIN_TIME_PARALLEL, Heuristic.MIN_TIME_SERIAL):
        order = np.argsort(hot.time_s - cold.time_s, kind="stable")
        h = prefix(hot.time_s[order] / arch.hot.count)
        c_part = cold.time_s[order] / arch.cold.count
        c = c_part.sum() - prefix(c_part)
        objective = np.maximum(h, c) if _MODE[heuristic] is ExecutionMode.PARALLEL else h + c
    else:
        order = np.argsort(hot.bytes - cold.bytes, kind="stable")
        c_part = cold.bytes[order]
        objective = prefix(hot.bytes[order]) + (c_part.sum() - prefix(c_part))
    cutoff = 0
    while cutoff + 1 < objective.size and objective[cutoff + 1] < objective[cutoff]:
        cutoff += 1
    assignment = np.zeros(tiled.n_tiles, dtype=bool)
    assignment[order[:cutoff]] = True
    return assignment


@pytest.mark.parametrize("cache_aware", [False, True])
@pytest.mark.parametrize("contention_aware", [False, True])
@pytest.mark.parametrize("arch_name", sorted(ARCHES))
@pytest.mark.parametrize("matrix_name", MATRICES)
def test_candidates_match_model_direct_reference(
    request, matrix_name, arch_name, contention_aware, cache_aware
):
    arch = ARCHES[arch_name]()
    matrix = request.getfixturevalue(matrix_name)
    tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
    partitioner = HotTilesPartitioner(
        arch, cache_aware=cache_aware, contention_aware=contention_aware
    )
    result = partitioner.partition(tiled)

    whole = {h: r for h, r in result.candidates.items() if h is not Heuristic.BLOCK_SPLIT}
    expected = 2 if arch.atomic_updates else 4
    assert len(whole) == expected
    for heuristic, cand in whole.items():
        np.testing.assert_array_equal(
            cand.assignment, reference_assignment(partitioner, tiled, heuristic)
        )
        assert cand.mode is _MODE[heuristic]
        time_s, naive_s, totals = reference_score(
            partitioner, tiled, cand.assignment, cand.mode
        )
        assert cand.predicted_time_s == time_s
        assert cand.naive_time_s == naive_s
        assert cand.totals == totals
        assert cand.scorer == partitioner.scorer

    split = result.candidates[Heuristic.BLOCK_SPLIT]
    if split.split is None:
        base = min(whole.values(), key=lambda r: r.predicted_time_s)
        assert split.predicted_time_s == base.predicted_time_s
    assert result.chosen.predicted_time_s == min(
        r.predicted_time_s for r in result.candidates.values()
    )

    rng = np.random.default_rng(0)
    assignment = rng.random(tiled.n_tiles) < 0.4
    for mode in ExecutionMode:
        time_s, _, totals = reference_score(partitioner, tiled, assignment, mode)
        assert partitioner.predicted_runtime(tiled, assignment, mode) == (time_s, totals)
    for kind in WorkerKind:
        homogeneous = np.full(tiled.n_tiles, kind is WorkerKind.HOT)
        time_s, _, _ = reference_score(
            partitioner, tiled, homogeneous, ExecutionMode.PARALLEL
        )
        assert partitioner.predict_homogeneous(tiled, kind) == time_s


@pytest.mark.parametrize(
    "arch", [tiny_arch(), tiny_arch(atomic=True), tiny_arch(pcie_gbs=20.0)],
    ids=["buffered", "atomic", "pcie"],
)
@pytest.mark.parametrize("contention_aware", [False, True])
def test_exhaustive_matches_brute_force_reference(arch, contention_aware):
    rng = np.random.default_rng(5)
    tiled = TiledMatrix(
        SparseMatrix(12, 12, rng.integers(0, 12, 40), rng.integers(0, 12, 40)), 4, 4
    )
    assert tiled.n_tiles <= 12
    partitioner = HotTilesPartitioner(arch, contention_aware=contention_aware)
    oracle = exhaustive_partition(partitioner, tiled)

    time_s, naive_s, totals = reference_score(
        partitioner, tiled, oracle.assignment, oracle.mode
    )
    assert (oracle.predicted_time_s, oracle.naive_time_s, oracle.totals) == (
        time_s, naive_s, totals,
    )
    modes = [ExecutionMode.PARALLEL]
    if not arch.atomic_updates:
        modes.append(ExecutionMode.SERIAL)
    n = tiled.n_tiles
    best = min(
        reference_score(
            partitioner, tiled, (b >> np.arange(n)) & 1 == 1, mode
        )[0]
        for b in range(1 << n)
        for mode in modes
    )
    # The batched search sums in a different order than the scalar
    # scorer, so near-ties may resolve differently; the winner's score
    # must still be the minimum up to rounding.
    assert best <= oracle.predicted_time_s <= best * (1 + 1e-12)


class TestModelCallCount:
    """Planning models the full tiling once; seeding a lineage, never."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = []
        original = AnalyticalModel.tile_costs

        def counting(model, tiled, worker, first_mask=None):
            seen.append(tiled)
            return original(model, tiled, worker, first_mask)

        monkeypatch.setattr(AnalyticalModel, "tile_costs", counting)
        return seen

    @pytest.mark.parametrize(
        "arch", [spade_sextans(4), spade_sextans_pcie(4), piuma()],
        ids=["spade_sextans", "spade_sextans_pcie", "piuma"],
    )
    def test_partition_models_full_tiling_four_times(self, calls, small_rmat, arch):
        tiled = TiledMatrix(small_rmat, arch.tile_height, arch.tile_width)
        partitioner = HotTilesPartitioner(arch)
        result = partitioner.partition(tiled)
        # Block-split probes model only the two row-blocks of one tile.
        assert sum(t is tiled for t in calls) == 4
        assert all(t.stats.n_tiles == 2 for t in calls if t is not tiled)

        calls.clear()
        cache = plan_cache_from(partitioner, tiled, result)
        lineage = MatrixLineage("a" * 64, tiled, partitioner, result=result)
        assert calls == []
        assert lineage.cache is cache
        np.testing.assert_array_equal(cache.assignment, result.chosen.assignment)
