"""Tracing-enabled vs tracing-disabled simulation must be bit-identical.

The acceptance criterion of the observability layer: instrumentation
observes the fluid engine, it never feeds back into the arithmetic.
Every matrix in ``tests/conftest.py`` is simulated both ways and every
``SimResult`` field is compared with exact equality -- no tolerances.
"""

import numpy as np
import pytest

from repro.core.partition import ExecutionMode
from repro.obs import Tracer, use_tracer
from repro.sim.engine import simulate, simulate_homogeneous
from repro.core.traits import WorkerKind
from repro.sparse.tiling import TiledMatrix

MATRIX_FIXTURES = ["tiny_matrix", "small_rmat", "small_uniform", "small_banded"]


def _assignment(tiled, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random(tiled.n_tiles) < 0.5


def _assert_bit_identical(traced, plain):
    assert traced.time_s == plain.time_s
    assert traced.merge_time_s == plain.merge_time_s
    assert traced.mode == plain.mode
    assert traced.hot == plain.hot  # instances, nnz, flops, bytes, busy_s
    assert traced.cold == plain.cold
    assert traced.bandwidth_profile == plain.bandwidth_profile
    assert traced.bytes_total == plain.bytes_total


@pytest.mark.parametrize("fixture", MATRIX_FIXTURES)
@pytest.mark.parametrize("mode", [ExecutionMode.PARALLEL, ExecutionMode.SERIAL])
def test_tracing_does_not_perturb_simulate(fixture, mode, request, spade_sextans_arch):
    matrix = request.getfixturevalue(fixture)
    arch = spade_sextans_arch
    tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
    assignment = _assignment(tiled)

    plain = simulate(arch, tiled, assignment, mode)
    with use_tracer(Tracer(enabled=True)) as tracer:
        traced = simulate(arch, tiled, assignment, mode)

    assert len(tracer) > 0, "tracer recorded nothing with tracing enabled"
    _assert_bit_identical(traced, plain)


@pytest.mark.parametrize("fixture", MATRIX_FIXTURES)
def test_tracing_does_not_perturb_homogeneous(fixture, request, piuma_arch):
    matrix = request.getfixturevalue(fixture)
    tiled = TiledMatrix(matrix, piuma_arch.tile_height, piuma_arch.tile_width)

    plain = simulate_homogeneous(piuma_arch, tiled, WorkerKind.COLD)
    with use_tracer(Tracer(enabled=True)):
        traced = simulate_homogeneous(piuma_arch, tiled, WorkerKind.COLD)
    _assert_bit_identical(traced, plain)


def test_traced_run_narrates_chunks_and_bandwidth(small_rmat, spade_sextans_arch):
    """The sim tracks carry the expected record kinds and totals."""
    arch = spade_sextans_arch
    tiled = TiledMatrix(small_rmat, arch.tile_height, arch.tile_width)
    assignment = _assignment(tiled)
    with use_tracer(Tracer(enabled=True)) as tracer:
        result = simulate(arch, tiled, assignment, ExecutionMode.PARALLEL)

    sim_spans = [s for s in tracer.spans() if s.process == "sim"]
    assert sim_spans, "no virtual-time spans recorded"
    # Chunk spans land inside the makespan and cover each group's work.
    for span in sim_spans:
        assert span.ts >= 0.0
        assert span.end <= result.time_s + 1e-12
    chunk_bytes = sum(
        s.args["bytes"] for s in sim_spans if s.name.startswith("chunk")
    )
    assert chunk_bytes == pytest.approx(result.bytes_total)
    # Bandwidth counter samples exist and end at zero.
    counters = [c for c in tracer.counters() if c.name == "bandwidth"]
    assert counters and counters[-1].value == 0.0
    # One rebalance event per fluid-engine interval (plus none spurious).
    rebalances = [e for e in tracer.events() if e.name == "rebalance"]
    assert len(rebalances) == len(result.bandwidth_profile) - (
        1 if result.merge_time_s > 0 else 0
    )


def test_traced_faulted_run_matches_and_narrates_recovery(spade_sextans_arch):
    """A failure that reassigns phases: tracing still changes nothing, the
    faults track narrates the failure and the recovery, and the phases
    the heir inherited (no chunk of its own plan) get their own span."""
    from repro.faults.schedule import FaultSchedule, WorkerFailure
    from repro.sparse import generators

    arch = spade_sextans_arch
    tiled = TiledMatrix(
        generators.rmat(scale=9, nnz=4_000, seed=0), arch.tile_height, arch.tile_width
    )
    assignment = np.zeros(tiled.n_tiles, dtype=bool)  # all on the cold group
    base = simulate(arch, tiled, assignment, ExecutionMode.PARALLEL)
    t_fail = base.time_s * 0.3
    schedule = FaultSchedule([WorkerFailure(t_s=t_fail, kind="cold", index=0)])

    plain = simulate(arch, tiled, assignment, ExecutionMode.PARALLEL, faults=schedule)
    with use_tracer(Tracer(enabled=True)) as tracer:
        traced = simulate(
            arch, tiled, assignment, ExecutionMode.PARALLEL, faults=schedule
        )
    _assert_bit_identical(traced, plain)
    assert traced.faults == plain.faults
    assert plain.faults.reassigned_phases > 0

    faults = [e for e in tracer.events() if e.track == "faults"]
    assert [e.name for e in faults if e.name != "fault.bandwidth"] == [
        "fault.failure", "fault.recovery",
    ]
    recovery = faults[-1]
    assert recovery.args["dead"] == "cold-0"
    assert recovery.args["phases"] == plain.faults.reassigned_phases

    sim_spans = [s for s in tracer.spans() if s.process == "sim"]
    for span in sim_spans:
        assert 0.0 <= span.ts and span.end <= traced.time_s + 1e-12
    # The victim's last chunk span ends at the failure.
    victim = [s for s in sim_spans if s.track == "cold-0"]
    assert victim and max(s.end for s in victim) == pytest.approx(t_fail)
    inherited = [s for s in sim_spans if s.name == "inherited"]
    assert [s.track for s in inherited] == [recovery.args["heir"]]
    assert inherited[0].args["dead"] == "cold-0"
    assert inherited[0].ts >= t_fail
