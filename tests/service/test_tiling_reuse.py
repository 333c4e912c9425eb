"""One scan per matrix and tile shape, shared by every architecture.

``PlanService`` keeps a weak memo of tilings keyed on the matrix token
and the tile shape: a request for a matrix another architecture already
scanned reuses that tiling instead of generating and tiling it again.
The plans it produces must equal what a fresh service computes.
"""

import dataclasses
import gc
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.partition import HotTilesPartitioner
from repro.service.planner import PlanService
from repro.service.protocol import PlanRequest
from repro.service.store import PlanStore
from repro.sparse.tiling import TiledMatrix
from repro.streaming.delta import DeltaBatch

#: The three served architectures; at the default scale all use 128x128 tiles.
ARCHES = ("spade-sextans", "spade-sextans-pcie", "piuma")
SPEC = {"kind": "rmat", "scale": 9, "nnz": 6000, "seed": 3}
TIMING_FIELDS = ("scan_s", "partition_s", "format_generation_s", "plan_wall_s",
                 "created_unix")


def request(arch, spec=SPEC, **extra):
    return PlanRequest.from_dict({"generator": dict(spec), "arch": arch, **extra})


@pytest.fixture
def count_resolves(monkeypatch):
    """Count every ``PlanRequest.resolve_matrix`` call."""
    calls = []
    real = PlanRequest.resolve_matrix

    def counting(self, *args, **kwargs):
        calls.append(self.arch)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(PlanRequest, "resolve_matrix", counting)
    return calls


def comparable(result, store_dir):
    """A plan's fields without timings, and its artifacts as bytes by name."""
    fields = {
        k: v for k, v in result.to_dict().items()
        if k not in TIMING_FIELDS and k != "artifacts"
    }
    artifacts = {
        str(Path(p).relative_to(store_dir)): Path(p).read_bytes()
        for p in result.artifacts
    }
    return fields, artifacts


def fresh_plan(tmp_path, req):
    store_dir = tmp_path / f"fresh-{req.arch}-{req.scale}"
    with PlanService(store=PlanStore(store_dir), workers=1) as svc:
        result, served = svc.plan(req)
    assert served == "computed"
    return comparable(result, store_dir)


class TestSharing:
    def test_three_archs_generate_and_tile_once(self, tmp_path, count_resolves):
        with PlanService(store=PlanStore(tmp_path / "p"), workers=1) as svc:
            results = [svc.plan(request(arch))[0] for arch in ARCHES]
            tilings = [svc.lineages.resolve(r.digest).tiled for r in results]
            counters = svc.metrics.snapshot()["counters"]
        assert count_resolves == [ARCHES[0]]
        assert tilings[0] is tilings[1] is tilings[2]
        assert counters["tilings_reused"] == 2
        assert counters["plans_computed"] == 3
        assert len({r.digest for r in results}) == 3

    def test_another_tile_shape_is_tiled_again(self, tmp_path, count_resolves):
        # spade-sextans at scale 1 uses 128x32 tiles; piuma keeps 128x128.
        with PlanService(store=PlanStore(tmp_path / "p"), workers=1) as svc:
            narrow, _ = svc.plan(request("spade-sextans", scale=1))
            square, _ = svc.plan(request("piuma"))
            a = svc.lineages.resolve(narrow.digest).tiled
            b = svc.lineages.resolve(square.digest).tiled
            reused = svc.metrics.snapshot()["counters"]["tilings_reused"]
        assert (a.tile_width, b.tile_width) == (32, 128)
        assert len(count_resolves) == 2 and reused == 0

    def test_plans_and_artifacts_equal_a_fresh_service(self, tmp_path):
        store_dir = tmp_path / "shared"
        with PlanService(store=PlanStore(store_dir), workers=1) as svc:
            shared = [svc.plan(request(arch))[0] for arch in ARCHES]
            assert svc.metrics.snapshot()["counters"]["tilings_reused"] == 2
        for arch, result in zip(ARCHES, shared):
            fields, artifacts = comparable(result, store_dir)
            want_fields, want_artifacts = fresh_plan(tmp_path, request(arch))
            assert fields == want_fields, arch
            assert artifacts == want_artifacts, arch
            assert artifacts  # at least the assignment was saved

    def test_degraded_plan_reuses_the_scan(self, tmp_path, count_resolves):
        from repro.obs.tracer import get_tracer

        req = request("spade-sextans")
        with PlanService(store=PlanStore(tmp_path / "p"), workers=1) as svc:
            svc.plan(request("piuma"))
            fallback = svc._degraded_plan(req, req.digest(), get_tracer())
            reused = svc.metrics.snapshot()["counters"]["tilings_reused"]
        assert count_resolves == ["piuma"] and reused == 1
        with PlanService(store=PlanStore(tmp_path / "fresh"), workers=1) as svc:
            want = svc._degraded_plan(req, req.digest(), get_tracer())
        assert fallback is not None and want is not None
        assert dataclasses.replace(fallback, plan_wall_s=0.0, created_unix=0.0) == (
            dataclasses.replace(want, plan_wall_s=0.0, created_unix=0.0)
        )

    def test_delta_on_one_lineage_leaves_the_others(self, tmp_path):
        with PlanService(store=PlanStore(tmp_path / "p"), workers=1) as svc:
            results = [svc.plan(request(arch))[0] for arch in ARCHES]
            lineages = [svc.lineages.resolve(r.digest) for r in results]
            shared = lineages[0].tiled
            before = [(lin.head_digest, lin.result.chosen.assignment.copy())
                      for lin in lineages]
            delta = DeltaBatch.random(shared.matrix, inserts=200, deletes=100, seed=7)
            repaired, update = svc.apply_delta(results[1].digest, delta)

            assert lineages[1].tiled is not shared
            for lin, (head, assignment) in zip(lineages[::2], before[::2]):
                assert lin.tiled is shared
                assert lin.head_digest == head
                assert np.array_equal(lin.result.chosen.assignment, assignment)
            arch = request(ARCHES[1]).build_architecture()
            scratch = HotTilesPartitioner(arch).partition(
                TiledMatrix(lineages[1].tiled.matrix, arch.tile_height, arch.tile_width)
            ).chosen
            chosen = update.partition.chosen
            assert (chosen.label, chosen.hot_tile_count, chosen.predicted_time_s) == (
                scratch.label, scratch.hot_tile_count, scratch.predicted_time_s
            )
            assert np.array_equal(chosen.assignment, scratch.assignment)
            assert repaired.label == scratch.label


class TestWeakLifetime:
    def test_memo_keeps_nothing_alive(self, tmp_path):
        svc = PlanService(store=PlanStore(tmp_path / "p"), workers=1, max_lineages=1)
        try:
            svc.plan(request("piuma"))
            second, _ = svc.plan(request("piuma", spec=dict(SPEC, seed=4)))
            gc.collect()  # the first lineage was evicted: its scan is gone
            lineage = svc.lineages.resolve(second.digest)
            assert list(svc._tilings.values()) == [lineage.tiled]

            # A delta replaces the survivor's scan; then nothing holds it.
            delta = DeltaBatch.random(lineage.tiled.matrix, inserts=50, deletes=20, seed=1)
            svc.apply_delta(second.digest, delta)
            del lineage
            gc.collect()
            assert len(svc._tilings) == 0
        finally:
            svc.close()


class TestConcurrency:
    def test_workers_plan_architectures_at_once(self, tmp_path, count_resolves):
        reqs = [request(arch) for arch in ARCHES] + [
            request(arch, spec=dict(SPEC, seed=5)) for arch in ARCHES
        ]
        outcomes, errors = {}, []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with PlanService(store=PlanStore(tmp_path / "p"), workers=4,
                             queue_depth=len(reqs)) as svc:
                def call(req):
                    try:
                        outcomes[req.digest()] = svc.plan(req, timeout_s=60.0)
                    except Exception as exc:  # noqa: BLE001 -- asserted below
                        errors.append(exc)

                threads = [threading.Thread(target=call, args=(r,)) for r in reqs]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120.0)
                assert not any(t.is_alive() for t in threads)
                reused = svc.metrics.snapshot()["counters"]["tilings_reused"]
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        assert {served for _, served in outcomes.values()} == {"computed"}
        # Every computation either generated its matrix or reused a scan.
        assert len(count_resolves) + reused == len(reqs)
        for req in reqs:
            result, _ = outcomes[req.digest()]
            fields, _ = comparable(result, tmp_path / "p")
            assert fields == fresh_plan(tmp_path, req)[0]
