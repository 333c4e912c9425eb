"""PlanService tests: coalescing, backpressure, timeout, drain."""

import threading
import time

import pytest

from repro.service.planner import (
    AdmissionRejected,
    PlanFailed,
    PlanService,
    PlanTimeout,
    ServiceClosed,
)
from repro.service.protocol import PlanRequest
from repro.service.store import PlanStore


def rmat_request(seed=0, **overrides):
    payload = {"generator": {"kind": "rmat", "scale": 8, "nnz": 2000, "seed": seed}}
    payload.update(overrides)
    return PlanRequest.from_dict(payload)


@pytest.fixture
def service(tmp_path):
    svc = PlanService(store=PlanStore(tmp_path / "plans"), workers=2, queue_depth=8)
    yield svc
    svc.close()


class TestHappyPath:
    def test_computed_then_store(self, service):
        result, served = service.plan(rmat_request())
        assert served == "computed"
        again, served2 = service.plan(rmat_request())
        assert served2 == "store"
        assert again == result
        counters = service.metrics.snapshot()["counters"]
        assert counters["requests_accepted"] == 2
        assert counters["requests_completed"] == 2
        assert counters["plans_computed"] == 1

    def test_store_survives_restart(self, tmp_path):
        with PlanService(store=PlanStore(tmp_path / "p")) as svc:
            first, _ = svc.plan(rmat_request())
        with PlanService(store=PlanStore(tmp_path / "p")) as svc:
            again, served = svc.plan(rmat_request())
        assert served == "store"
        assert again == first

    def test_distinct_requests_distinct_plans(self, service):
        a, _ = service.plan(rmat_request(seed=1))
        b, _ = service.plan(rmat_request(seed=2))
        assert a.digest != b.digest


class TestCoalescing:
    def test_concurrent_same_digest_computes_once(self, tmp_path):
        svc = PlanService(store=PlanStore(tmp_path / "p"), workers=2, queue_depth=8)
        gate = threading.Event()
        real_compute = svc._compute

        def slow_compute(request, digest):
            gate.wait(5.0)
            return real_compute(request, digest)

        svc._compute = slow_compute
        outcomes = []

        def call():
            outcomes.append(svc.plan(rmat_request(), timeout_s=10.0))

        threads = [threading.Thread(target=call) for _ in range(4)]
        for t in threads:
            t.start()
        # Let every request register against the in-flight entry.
        deadline = time.monotonic() + 5.0
        while svc.metrics.counter("requests_coalesced").value < 3:
            if time.monotonic() > deadline:
                break
            time.sleep(0.01)
        gate.set()
        for t in threads:
            t.join()
        svc.close()
        assert len(outcomes) == 4
        assert len({r.digest for r, _ in outcomes}) == 1
        counters = svc.metrics.snapshot()["counters"]
        assert counters["plans_computed"] == 1
        assert counters["requests_coalesced"] == 3
        served = sorted(s for _, s in outcomes)
        assert served == ["coalesced", "coalesced", "coalesced", "computed"]


class TestBackpressure:
    def test_queue_full_rejects_with_retry_after(self, tmp_path):
        svc = PlanService(store=PlanStore(tmp_path / "p"), workers=1, queue_depth=1)
        gate = threading.Event()
        real = svc._compute
        svc._compute = lambda request, digest: (gate.wait(10.0), real(request, digest))[1]

        def call(seed):
            svc.plan(rmat_request(seed=seed), timeout_s=30.0)

        # Occupy the worker, then fill the single queue slot.
        t1 = threading.Thread(target=call, args=(1,))
        t1.start()
        deadline = time.monotonic() + 5.0
        while svc.metrics.gauge("plans_in_flight").value < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        t2 = threading.Thread(target=call, args=(2,))
        t2.start()
        deadline = time.monotonic() + 5.0
        while svc._queue.qsize() < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with pytest.raises(AdmissionRejected) as excinfo:
            svc.plan(rmat_request(seed=3))
        assert excinfo.value.retry_after_s > 0
        assert svc.metrics.counter("requests_rejected").value == 1
        gate.set()
        t1.join()
        t2.join()
        svc.close()


class TestTimeoutAndCancellation:
    def test_timeout_raises_and_counts(self, tmp_path):
        svc = PlanService(store=PlanStore(tmp_path / "p"), workers=1, queue_depth=4)
        gate = threading.Event()
        real = svc._compute
        svc._compute = lambda request, digest: (gate.wait(10.0), real(request, digest))[1]
        blocker = threading.Thread(
            target=lambda: svc.plan(rmat_request(seed=1), timeout_s=10.0)
        )
        blocker.start()
        deadline = time.monotonic() + 5.0
        while svc.metrics.gauge("plans_in_flight").value < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # A second, queued plan abandoned by its only waiter is cancelled.
        with pytest.raises(PlanTimeout):
            svc.plan(rmat_request(seed=2), timeout_s=0.05)
        gate.set()
        blocker.join()
        svc.close()
        counters = svc.metrics.snapshot()["counters"]
        assert counters["requests_timeout"] == 1
        assert counters["plans_cancelled"] == 1
        # The cancelled plan never executed.
        assert counters["plans_computed"] == 1

    def test_failure_surfaces_error_text(self, service):
        # Digests fine, but the generator rejects it at compute time:
        # 2000 nonzeros cannot fit a 16x16 matrix.
        bad = PlanRequest.from_dict(
            {"generator": {"kind": "rmat", "scale": 4, "nnz": 2000, "seed": 0}}
        )
        with pytest.raises(PlanFailed):
            service.plan(bad)
        assert service.metrics.counter("requests_failed").value == 1

    def test_matrix_file_rewritten_after_digest_is_refused(self, tmp_path):
        """The file is hashed and parsed from one read; a changed file
        fails the plan instead of storing it under the old digest."""
        from repro.sparse import generators
        from repro.sparse.mmio import write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(generators.uniform_random(64, 64, 300, seed=1), path)
        request = PlanRequest.from_dict({"matrix_path": str(path)})
        old_digest = request.digest()
        svc = PlanService(store=PlanStore(tmp_path / "p"), workers=1)
        real_compute = svc._compute

        def rewrite_then_compute(req, digest):
            write_matrix_market(generators.uniform_random(64, 64, 300, seed=2), path)
            return real_compute(req, digest)

        svc._compute = rewrite_then_compute
        try:
            with pytest.raises(PlanFailed) as info:
                svc.plan(request)
            assert info.value.error.type == "ProtocolError"
            assert "matrix_path changed" in info.value.error.message
            assert svc.store.get(old_digest) is None
            assert len(svc.lineages) == 0
            svc._compute = real_compute
            result, served = svc.plan(request)
        finally:
            svc.close()
        assert served == "computed"
        assert result.digest == request.digest() != old_digest


class TestShutdown:
    def test_close_rejects_new_requests(self, tmp_path):
        svc = PlanService(store=PlanStore(tmp_path / "p"))
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.plan(rmat_request())

    def test_close_is_idempotent(self, tmp_path):
        svc = PlanService(store=PlanStore(tmp_path / "p"))
        svc.close()
        svc.close()

    def test_drain_completes_inflight_plans(self, tmp_path):
        svc = PlanService(store=PlanStore(tmp_path / "p"), workers=1, queue_depth=8)
        results = []

        def call(seed):
            results.append(svc.plan(rmat_request(seed=seed), timeout_s=30.0))

        threads = [threading.Thread(target=call, args=(s,)) for s in range(3)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10.0
        while svc.metrics.counter("requests_accepted").value < 3:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        svc.close(drain=True)
        for t in threads:
            t.join()
        # Every admitted request completed; none were abandoned.
        assert len(results) == 3
        counters = svc.metrics.snapshot()["counters"]
        assert counters["requests_completed"] == counters["requests_accepted"]

    def test_stats_snapshot_shape(self, service):
        service.plan(rmat_request())
        stats = service.stats()
        assert stats["uptime_s"] >= 0
        assert stats["config"]["workers"] == 2
        assert "store" in stats
        assert stats["counters"]["requests_completed"] == 1
        assert stats["histograms"]["request_latency_s"]["count"] == 1
