"""The three surfaces the benchmark drives, their inputs and output checks.

- **serve**: ``hottiles serve`` in a subprocess on an ephemeral port with
  a fresh store, driven over keep-alive ``http.client`` connections: cold
  requests (one client; every plan is new to the store), then warm ones
  (up to ``nproc`` clients re-requesting those plans in a seeded order).
- **delta**: in-process ``PlanService.apply_delta`` over seeded
  ``DeltaBatch`` streams against lineages planned during set-up.
- **cells**: ``experiments.runner.evaluate_matrix`` over reseeded Table
  V/VIII recipes on every architecture, plus one faulted ``simulate`` of
  the HotTiles plan per cell.

Every workload runs each surface once, interleaved in slices.  Its own
surface then keeps going until ``--seconds`` have passed: warm requests
cycle through all plans for ``plan-serve``, whole rounds repeat for the
other two (see README.md).
"""

from __future__ import annotations

import http.client
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ARCHES = ("spade-sextans", "spade-sextans-pcie", "piuma")
#: Which surface each workload repeats for ``--seconds``.
PRIMARY = {"plan-serve": "serve", "delta-stream": "delta", "experiment-cells": "cells"}


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark scale."""

    #: generator specs (without seed) of the served plans, one per kind
    serve_kinds: Dict[str, Dict[str, Any]]
    #: seeds per kind; unequal counts keep the median and the tail of the
    #: cold latencies inside one kind's cluster instead of between two
    cold_variants: Dict[str, int]
    warm_repeats: int  #: warm requests per cold plan in one warm pass
    #: lineage base matrices; each is planned on every architecture
    delta_bases: Dict[str, Dict[str, Any]]
    deltas_per_lineage: int  #: batches per lineage per delta round
    delta_fractions: Tuple[float, float]  #: small and large batch, share of nnz
    #: Table V/VIII recipes as generator specs (their seed is replaced)
    cell_recipes: Dict[str, Dict[str, Any]]
    reference_recipe: str  #: the cell checked against the frozen simulator
    setup_reps: int  #: set-ups per untraced run; setup_s is their median
    slices: int  #: interleaved slices the surfaces' first pass is cut into

    @property
    def cold_per_round(self) -> int:
        return sum(self.cold_variants.values()) * len(ARCHES)

    @property
    def warm_per_round(self) -> int:
        return self.cold_per_round * self.warm_repeats

    @property
    def deltas_per_round(self) -> int:
        return len(self.delta_bases) * len(ARCHES) * self.deltas_per_lineage


FULL = Sizes(
    serve_kinds={
        "rmat": {"kind": "rmat", "scale": 13, "nnz": 200_000},
        "banded": {"kind": "banded", "n": 16384, "nnz": 100_000, "bandwidth": 64,
                   "scatter_fraction": 0.05},
        "community": {"kind": "community", "n": 8192, "nnz": 100_000,
                      "n_communities": 32, "intra_fraction": 0.85},
        "uniform": {"kind": "uniform", "n_rows": 16384, "n_cols": 16384, "nnz": 100_000},
    },
    cold_variants={"rmat": 5, "uniform": 3, "community": 2, "banded": 2},
    warm_repeats=4,
    delta_bases={
        "rmat": {"kind": "rmat", "scale": 13, "nnz": 200_000},
        "banded": {"kind": "banded", "n": 16384, "nnz": 200_000, "bandwidth": 64,
                   "scatter_fraction": 0.05},
    },
    deltas_per_lineage=8,
    delta_fractions=(0.001, 0.01),
    # Parameters of repro.experiments.matrices.  Cell costs cluster by
    # recipe (gea < pap ~ dgr < del), so the median cell sits in the middle
    # of the pap/dgr cluster rather than at the edge of a single recipe.
    cell_recipes={
        "gea": {"kind": "banded", "n": 2344, "nnz": 141_000, "bandwidth": 48},
        "pap": {"kind": "community", "n": 6656, "nnz": 500_000, "n_communities": 48,
                "intra_fraction": 0.85},
        "dgr": {"kind": "banded", "n": 18944, "nnz": 422_000, "bandwidth": 320,
                "scatter_fraction": 0.08},
        "del": {"kind": "banded", "n": 65536, "nnz": 390_000, "bandwidth": 24,
                "scatter_fraction": 0.12},
    },
    reference_recipe="gea",
    setup_reps=3,
    slices=4,
)

#: Seconds-scale inputs for the smoke tests.
TINY = Sizes(
    serve_kinds={
        "rmat": {"kind": "rmat", "scale": 9, "nnz": 4_000},
        "banded": {"kind": "banded", "n": 1024, "nnz": 4_000, "bandwidth": 16},
    },
    cold_variants={"rmat": 1, "banded": 1},
    warm_repeats=2,
    delta_bases={"rmat": {"kind": "rmat", "scale": 9, "nnz": 4_000}},
    deltas_per_lineage=2,
    delta_fractions=(0.005, 0.05),
    cell_recipes={"gea": {"kind": "banded", "n": 512, "nnz": 6_000, "bandwidth": 16}},
    reference_recipe="gea",
    setup_reps=2,
    slices=2,
)


def sub_seed(*path: int) -> int:
    """A 31-bit seed derived from ``path`` (the workload seed first)."""
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0] & 0x7FFFFFFF)


def _arch(name: str):
    """The architecture a plan request for ``name`` is served on."""
    from repro.service.protocol import PlanRequest

    return PlanRequest(arch=name).build_architecture()


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of ``n`` samples above it."""
    return max(0, math.floor(100 * (n - 10) / n))


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Tally:
    """Operations attempted and failed, with the first failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


# ----------------------------------------------------------------------
# The plan server


class Server:
    """One ``hottiles serve`` subprocess, started through ``launcher.py``."""

    def __init__(self, workdir: Path, env: Dict[str, str], traced: bool) -> None:
        self.workdir = workdir
        self.log_path = workdir / "server.log"
        self.layer_spans = workdir / "server-spans.json" if traced else None
        self.trace_file = workdir / "server-trace.json" if traced else None
        cmd = [sys.executable, str(HERE / "launcher.py")]
        if traced:
            cmd += ["--layer-spans", str(self.layer_spans)]
        cmd += ["--", "serve", "--port", "0", "--workers", "2",
                "--store-dir", str(workdir / "store")]
        if traced:
            cmd += ["--trace", str(self.trace_file)]
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=self._log, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT)
        )
        try:
            self.port = self._wait_for_port()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self, timeout_s: float = 60.0) -> int:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            text = self.log_path.read_text(errors="replace")
            for token in text.split():
                if token.startswith("port="):
                    return int(token[len("port="):])
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{text}")
            time.sleep(0.005)
        raise RuntimeError("server did not report its port")

    def _wait_healthy(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never became healthy")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = self.connect()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def stats(self) -> Dict[str, Any]:
        status, body = self.get("/stats")
        if status != 200:
            raise RuntimeError(f"GET /stats answered {status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """SIGTERM drains the server (and writes its traces); wait for exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def post_json(conn: http.client.HTTPConnection, path: str, body: bytes) -> Tuple[int, bytes]:
    conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.read()


# ----------------------------------------------------------------------
# Set-up


@dataclass
class Lineage:
    """One delta stream: a base plan on one architecture and its head."""

    name: str
    arch_name: str
    head: str
    region: Tuple[int, int, int, int]  #: the localized insert hot spot
    steps: int = 0


@dataclass
class Setup:
    workdir: Path
    server: Server
    service: Any  #: in-process PlanService holding the lineages
    lineages: List[Lineage]
    cell_archs: Dict[str, Any]  #: architectures whose calibration is cached
    cell_matrices: Dict[str, Any]
    seconds: float = 0.0

    def close(self) -> None:
        self.server.stop()
        self.service.close(drain=True)


def _spec(base: Dict[str, Any], seed: int) -> Dict[str, Any]:
    return dict(base, seed=seed)


def set_up(sizes: Sizes, seed: int, workdir: Path, env: Dict[str, str], traced: bool) -> Setup:
    """Server start to healthy, base lineages planned, calibration, matrices."""
    from repro.experiments.runner import calibrated, clear_calibration_cache
    from repro.service.planner import PlanService
    from repro.service.protocol import PlanRequest
    from repro.service.store import PlanStore

    workdir.mkdir(parents=True)
    start = time.perf_counter()
    server = Server(workdir, env, traced)
    service = PlanService(store=PlanStore(workdir / "lineage-store"), workers=1)
    try:
        lineages = []
        for b, (name, base) in enumerate(sizes.delta_bases.items()):
            spec = _spec(base, sub_seed(seed, 2, b))
            for a, arch_name in enumerate(ARCHES):
                request = PlanRequest.from_dict({"generator": spec, "arch": arch_name})
                result, _ = service.plan(request)
                rng = np.random.default_rng(sub_seed(seed, 2, b, a))
                h, w = max(result.n_rows // 16, 1), max(result.n_cols // 16, 1)
                r0 = int(rng.integers(0, result.n_rows - h + 1))
                c0 = int(rng.integers(0, result.n_cols - w + 1))
                lineages.append(
                    Lineage(f"{name}/{arch_name}", arch_name, result.digest,
                            (r0, r0 + h, c0, c0 + w))
                )
        clear_calibration_cache()
        cell_archs = {name: _arch(name) for name in ARCHES}
        for arch in cell_archs.values():
            calibrated(arch)
        cell_matrices = {
            short: PlanRequest.from_dict(
                {"generator": _spec(recipe, sub_seed(seed, 3, i))}
            ).resolve_matrix()
            for i, (short, recipe) in enumerate(sizes.cell_recipes.items())
        }
    except BaseException:
        server.stop()
        service.close(drain=False)
        raise
    setup = Setup(workdir, server, service, lineages, cell_archs, cell_matrices)
    setup.seconds = time.perf_counter() - start
    return setup


# ----------------------------------------------------------------------
# Surfaces.  Each one keeps its own samples and output checks; a pass
# feeds them work in slices (see run_pass).


@dataclass
class Samples:
    """Latencies per phase, plus the wall time and count of each phase."""

    latencies_ms: Dict[str, List[float]] = field(default_factory=dict)
    walls_s: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)

    def add(self, phase: str, latency_ms: float) -> None:
        self.latencies_ms.setdefault(phase, []).append(latency_ms)

    def add_wall(self, phase: str, seconds: float, count: int) -> None:
        self.walls_s[phase] = self.walls_s.get(phase, 0.0) + seconds
        self.counts[phase] = self.counts.get(phase, 0) + count


class ServeSurface:
    """Cold and warm plan requests to the set-up's server over HTTP."""

    def __init__(self, setup: Setup, sizes: Sizes, seed: int, clients: int,
                 tally: Tally, recorder) -> None:
        self.server = setup.server
        self.sizes, self.clients, self.tally, self.recorder = sizes, clients, tally, recorder
        self.samples = Samples()
        self.bodies: List[bytes] = []
        for k, (kind, base) in enumerate(sizes.serve_kinds.items()):
            for v in range(sizes.cold_variants[kind]):
                spec = _spec(base, sub_seed(seed, 1, k, v))
                for arch_name in ARCHES:
                    self.bodies.append(
                        json.dumps({"generator": spec, "arch": arch_name}).encode()
                    )
        self.order = np.random.default_rng(sub_seed(seed, 1)).permutation(
            len(self.bodies)).tolist()
        self._warm_rng = np.random.default_rng(sub_seed(seed, 4))
        self._warm_ops = 0
        self.cold_plans: Dict[int, bytes] = {}
        self._lookups = {"cold": [0, 0], "warm": [0, 0]}  #: store hits, lookups

    def cold(self, ids: List[int]) -> None:
        """One client requests each plan once; each must be computed."""
        before = self.server.stats()
        conn = self.server.connect()
        ok = 0
        start = time.perf_counter()
        for i in ids:
            status, body = self._post(conn, i, "cold", f"cold-{i}")
            if self.tally.check(status == 200 and _served(body) == "computed",
                                f"cold plan {i}: status {status}, served {_served(body)!r}"):
                self.cold_plans[i] = _plan_bytes(body)
                ok += 1
        self.samples.add_wall("cold", time.perf_counter() - start, len(ids))
        conn.close()
        self._reconcile(before, "cold", len(ids), ok)

    def warm(self, ids: List[int], seconds: float = 0.0) -> None:
        """Closed loop: ``clients`` connections re-request ``ids``.

        Each id is requested ``warm_repeats`` times in a seeded order; the
        clients keep cycling through that order until ``seconds`` passed.
        """
        order = self._warm_rng.permutation(
            np.repeat(np.asarray(ids), self.sizes.warm_repeats)).tolist()
        lock = threading.Lock()
        sent, ok = [0], [0]

        def client() -> None:
            conn = self.server.connect()
            try:
                while True:
                    with lock:
                        n = sent[0]
                        if n >= len(order) and time.perf_counter() >= deadline:
                            return
                        sent[0] += 1
                        self._warm_ops += 1
                        op = f"warm-{self._warm_ops}"
                    i = order[n % len(order)]
                    status, body = self._post(conn, i, "warm", op, lock)
                    good = status == 200 and _served(body) == "store"
                    same = self.cold_plans.get(i) == _plan_bytes(body)
                    with lock:
                        ok[0] += status == 200
                        self.tally.check(good and same, f"warm plan {i}: status {status}, "
                                         f"served {_served(body)!r}, equal to cold: {same}")
            finally:
                conn.close()

        before = self.server.stats()
        threads = [threading.Thread(target=client) for _ in range(self.clients)]
        start = time.perf_counter()
        deadline = start + seconds
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.samples.add_wall("warm", time.perf_counter() - start, sent[0])
        self._reconcile(before, "warm", sent[0], ok[0])

    def _post(self, conn, i: int, phase: str, op_id: str, lock=None) -> Tuple[int, bytes]:
        with self.recorder.op(op_id), self.recorder.span(f"client.{phase}"):
            start = time.perf_counter()
            try:
                status, reply = post_json(conn, "/plan", self.bodies[i])
            except (OSError, http.client.HTTPException):
                conn.close()
                status, reply = 0, b""
            elapsed = (time.perf_counter() - start) * 1e3
        if lock is None:
            self.samples.add(phase, elapsed)
        else:
            with lock:
                self.samples.add(phase, elapsed)
        return status, reply

    def _reconcile(self, before: Dict[str, Any], phase: str, attempted: int, ok: int) -> None:
        """``GET /stats`` must have moved exactly as the client saw it.

        A cold phase must miss the store on every request and a warm one
        hit it on every request; accepted and completed must match what
        the client sent and got back.
        """
        after = self.server.stats()
        hits = attempted if phase == "warm" else 0
        (h0, m0, a0, c0), (h1, m1, a1, c1) = _counters(before), _counters(after)
        got = (h1 - h0, m1 - m0, a1 - a0, c1 - c0)
        want = (hits, attempted - hits, attempted, ok)
        self.tally.check(got == want, f"{phase} /stats (hits, misses, accepted, "
                         f"completed) moved by {got}, expected {want}")
        self._lookups[phase][0] += h1 - h0
        self._lookups[phase][1] += (h1 - h0) + (m1 - m0)

    def hit_ratio(self, phase: str) -> float:
        hits, lookups = self._lookups[phase]
        return hits / lookups if lookups else 0.0

    def check(self) -> None:
        """The first cold plan matches a direct in-process preprocess."""
        from repro.pipeline.preprocess import HotTilesPreprocessor
        from repro.service.protocol import PlanRequest

        i = self.order[0]
        request = PlanRequest.from_dict(json.loads(self.bodies[i]))
        chosen = HotTilesPreprocessor(
            request.build_architecture(), cache_aware=request.cache_aware
        ).run(request.resolve_matrix()).partition.chosen
        plan_bytes = self.cold_plans.get(i)
        served = json.loads(b"{" + plan_bytes)["plan"] if plan_bytes else {}
        want = (chosen.label, chosen.hot_tile_count, chosen.predicted_time_s)
        got = (served.get("label"), served.get("hot_tiles"), served.get("predicted_time_s"))
        self.tally.check(got == want, f"served plan {got} differs from direct preprocess {want}")


def _served(body: bytes) -> Optional[str]:
    try:
        return json.loads(body).get("served")
    except (ValueError, AttributeError):
        return None


def _plan_bytes(body: bytes) -> bytes:
    """The reply's ``"plan"`` member exactly as the server wrote it."""
    at = body.find(b'"plan": ')
    return body[at:] if at >= 0 else b""


def _counters(stats: Dict[str, Any]) -> Tuple[int, int, int, int]:
    c, store = stats["counters"], stats["store"]
    return (store["session_hits"], store["session_misses"],
            c.get("requests_accepted", 0), c.get("requests_completed", 0))


class DeltaSurface:
    """In-process ``PlanService.apply_delta`` on the set-up's lineages."""

    def __init__(self, setup: Setup, sizes: Sizes, seed: int, tally: Tally, recorder) -> None:
        self.setup, self.sizes, self.seed = setup, sizes, seed
        self.tally, self.recorder = tally, recorder
        self.samples = Samples()
        self.rounds = 0

    def round_steps(self) -> List[Tuple[int, int, bool]]:
        """One round: ``deltas_per_lineage`` batches on every lineage.

        Each step is ``(lineage, size, local)``: a small or large batch,
        inserted in the lineage's hot spot or scattered over the matrix.
        """
        rng = np.random.default_rng(sub_seed(self.seed, 5, self.rounds))
        self.rounds += 1
        kinds = [(size, local) for size in (0, 1) for local in (True, False)]
        per = self.sizes.deltas_per_lineage
        picks = []
        for _ in self.setup.lineages:
            mine = [kinds[j % len(kinds)] for j in range(per)]
            rng.shuffle(mine)
            picks.append(mine)
        return [(li, *picks[li][step]) for step in range(per)
                for li in range(len(self.setup.lineages))]

    def run(self, steps: List[Tuple[int, int, bool]]) -> None:
        from repro.streaming.delta import DeltaBatch

        service = self.setup.service
        wall = 0.0
        for li, size, local in steps:
            lineage = self.setup.lineages[li]
            matrix = service.lineages.resolve(lineage.head).tiled.matrix
            # As many deletes as inserts, so nnz (and the cost of a batch)
            # does not drift with the number of rounds a run makes.
            n = max(1, int(self.sizes.delta_fractions[size] * matrix.nnz))
            batch = DeltaBatch.random(
                matrix, inserts=n, deletes=n,
                seed=sub_seed(self.seed, 6, li, lineage.steps),
                insert_region=lineage.region if local else None,
            )
            with self.recorder.op(f"delta-{li}-{lineage.steps}"), \
                    self.recorder.span("client.delta"):
                start = time.perf_counter()
                try:
                    result, update = service.apply_delta(lineage.head, batch)
                except Exception as exc:  # noqa: BLE001 -- counted as a failed operation
                    result, update = None, exc
                elapsed = time.perf_counter() - start
            wall += elapsed
            self.samples.add("delta", elapsed * 1e3)
            lineage.steps += 1
            if self.tally.check(result is not None and result.digest == update.new_digest,
                                f"delta on {lineage.name}: {update!r}"):
                lineage.head = update.new_digest
        self.samples.add_wall("delta", wall, len(steps))

    def check(self) -> None:
        """Each lineage's repaired plan equals a from-scratch partition."""
        from repro.core.partition import HotTilesPartitioner
        from repro.sparse.tiling import TiledMatrix

        for lineage in self.setup.lineages:
            head = self.setup.service.lineages.resolve(lineage.head)
            arch = _arch(lineage.arch_name)
            scratch = HotTilesPartitioner(arch).partition(
                TiledMatrix(head.tiled.matrix, arch.tile_height, arch.tile_width)
            ).chosen
            repaired = head.result.chosen
            same = (
                repaired.label == scratch.label
                and repaired.mode == scratch.mode
                and repaired.predicted_time_s == scratch.predicted_time_s
                and repaired.split == scratch.split
                and np.array_equal(repaired.assignment, scratch.assignment)
            )
            self.tally.check(same, f"lineage {lineage.name}: repaired {repaired.label} "
                             f"{repaired.predicted_time_s!r} != scratch {scratch.label} "
                             f"{scratch.predicted_time_s!r}")


class CellSurface:
    """``evaluate_matrix`` plus one faulted re-simulation per cell."""

    def __init__(self, setup: Setup, sizes: Sizes, seed: int, tally: Tally, recorder) -> None:
        self.setup, self.sizes, self.seed = setup, sizes, seed
        self.tally, self.recorder = tally, recorder
        self.samples = Samples()
        cells = [(i, short, a, arch_name)
                 for i, short in enumerate(setup.cell_matrices)
                 for a, arch_name in enumerate(ARCHES)]
        order = np.random.default_rng(sub_seed(seed, 9)).permutation(len(cells))
        self.cells = [cells[k] for k in order]
        #: simulated BestHomogeneous / HotTiles and the model's relative
        #: error, per cell, from its first run (both are deterministic)
        self.speedups: Dict[Tuple[int, int], float] = {}
        self.errors: Dict[Tuple[int, int], float] = {}
        self.reference: List[Tuple[Any, Any]] = []

    def run(self, cells: List[Tuple[int, str, int, str]]) -> None:
        from repro.experiments.runner import HOTTILES, evaluate_matrix
        from repro.sim import engine
        from repro.sparse.tiling import TiledMatrix

        start_all = time.perf_counter()
        for i, short, a, arch_name in cells:
            matrix = self.setup.cell_matrices[short]
            error: Any = None
            with self.recorder.op(f"cell-{short}-{arch_name}"), \
                    self.recorder.span("client.cell"):
                start = time.perf_counter()
                try:
                    run = evaluate_matrix(self.setup.cell_archs[arch_name], matrix,
                                          seed=sub_seed(self.seed, 7, i, a))
                    tiled = TiledMatrix(matrix, run.arch.tile_height, run.arch.tile_width)
                    chosen = run.partition.chosen
                    schedule = _fault_schedule(self.seed, i, a, run.time(HOTTILES), run.arch)
                    faulted = engine.simulate(run.arch, tiled, chosen.assignment, chosen.mode,
                                              faults=schedule, split=chosen.split)
                    if faulted.faults is None:
                        error = "faulted run has no fault summary"
                except Exception as exc:  # noqa: BLE001 -- counted as a failed operation
                    error = exc
                elapsed = (time.perf_counter() - start) * 1e3
            self.samples.add("cell", elapsed)
            if not self.tally.check(error is None, f"cell {short}/{arch_name}: {error!r}"):
                continue
            if (i, a) not in self.speedups:
                hot = run.outcomes[HOTTILES]
                self.speedups[(i, a)] = run.best_homogeneous_s / hot.time_s
                self.errors[(i, a)] = hot.prediction_error
                if short == self.sizes.reference_recipe:
                    self.reference.append((tiled, run))
        self.samples.add_wall("cell", time.perf_counter() - start_all, len(cells))

    def check(self) -> None:
        """One clean cell per architecture equals the frozen reference simulator."""
        from repro.core.partition import ExecutionMode
        from repro.experiments.runner import HOT_ONLY, HOTTILES
        from repro.sim._reference import simulate_reference

        for tiled, run in self.reference:
            arch, chosen = run.arch, run.partition.chosen
            if chosen.split is None:
                live = run.outcomes[HOTTILES].sim
                ref = simulate_reference(arch, tiled, chosen.assignment, chosen.mode)
            else:
                live = run.outcomes[HOT_ONLY].sim
                ref = simulate_reference(arch, tiled, np.ones(tiled.n_tiles, dtype=bool),
                                         ExecutionMode.PARALLEL)
            same = (
                live.time_s == ref.time_s and live.merge_time_s == ref.merge_time_s
                and live.mode == ref.mode and live.hot == ref.hot and live.cold == ref.cold
                and live.bandwidth_profile == ref.bandwidth_profile
            )
            self.tally.check(same, f"cell on {arch.name}: simulate {live.time_s!r} != "
                             f"reference {ref.time_s!r}")


def _fault_schedule(seed: int, i: int, a: int, horizon_s: float, arch):
    """A non-empty seeded schedule, drawn the way ``hottiles resilience`` does."""
    from repro.faults.schedule import FaultSchedule

    for attempt in range(100):
        schedule = FaultSchedule.random(
            seed=sub_seed(seed, 8, i, a, attempt), horizon_s=horizon_s,
            hot_instances=arch.hot.count, cold_instances=arch.cold.count,
            failure_rate=1.0, slowdown_rate=1.0, bandwidth_rate=1.0,
        )
        if not schedule.empty:
            return schedule
    raise RuntimeError("no non-empty fault schedule in 100 draws")


# ----------------------------------------------------------------------
# One pass: set-up, the surfaces, the checks


@dataclass
class Pass:
    setup_s: List[float]
    serve: ServeSurface
    delta: DeltaSurface
    cells: CellSurface
    tally: Tally
    peak_rss_mb: float
    server_spans: List[Dict[str, Any]]
    server_trace: List[Dict[str, Any]]


def _slices(items: List[Any], k: int) -> List[List[Any]]:
    return [items[j * len(items) // k:(j + 1) * len(items) // k] for j in range(k)]


def run_pass(workload: str, sizes: Sizes, seed: int, seconds: float, workdir: Path,
             env: Dict[str, str], recorder, reps: int) -> Pass:
    """``reps`` set-ups (the last one is kept), the measured region, the checks.

    The measured region first interleaves every surface in ``slices``
    slices -- cold plans, their warm re-requests, deltas, cells -- so that
    each metric samples the whole run rather than one stretch of it.  The
    workload's own surface then goes on for ``seconds``.
    """
    traced = recorder.enabled
    setup_s: List[float] = []
    setup: Optional[Setup] = None
    for rep in range(reps):
        if setup is not None:
            setup.close()
            shutil.rmtree(setup.workdir, ignore_errors=True)
        recorder.stage = "setup"
        setup = set_up(sizes, seed, workdir / f"setup{rep}", env, traced)
        setup_s.append(setup.seconds)
    assert setup is not None
    tally = Tally()
    clients = max(1, min(2, os.cpu_count() or 1))
    serve = ServeSurface(setup, sizes, seed, clients, tally, recorder)
    delta = DeltaSurface(setup, sizes, seed, tally, recorder)
    cells = CellSurface(setup, sizes, seed, tally, recorder)
    primary = PRIMARY[workload]
    try:
        recorder.stage = "measure"
        # Cells run twice here: one cell is a few hundred ms, so one pass
        # holds too few samples for a steady median.
        for cold, steps, cell_items in zip(_slices(serve.order, sizes.slices),
                                           _slices(delta.round_steps(), sizes.slices),
                                           _slices(cells.cells * 2, sizes.slices)):
            serve.cold(cold)
            serve.warm(cold)
            delta.run(steps)
            cells.run(cell_items)
        if primary == "serve":
            serve.warm(serve.order, seconds=seconds)
        else:
            deadline = time.perf_counter() + seconds
            while True:
                if primary == "delta":
                    delta.run(delta.round_steps())
                else:
                    cells.run(cells.cells)
                if time.perf_counter() >= deadline:
                    break
        recorder.enabled = False
        serve.check()
        delta.check()
        cells.check()
        if primary == "serve":
            peak = setup.server.peak_rss_mb()
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        setup.close()
    server_spans, server_trace = [], []
    if traced:
        server_spans = json.loads(setup.server.layer_spans.read_text())
        server_trace = json.loads(setup.server.trace_file.read_text())["traceEvents"]
    return Pass(setup_s, serve, delta, cells, tally, peak, server_spans, server_trace)


def end_to_end(p: Pass, sizes: Sizes) -> Dict[str, Tuple[float, str]]:
    """The 14 end-to-end metrics of one pass, as ``name -> (value, unit)``."""
    serve, delta, cells = p.serve.samples, p.delta.samples, p.cells.samples
    cold = serve.latencies_ms["cold"]
    warm = serve.latencies_ms["warm"]
    deltas = delta.latencies_ms["delta"]
    cell = cells.latencies_ms["cell"]
    speedups = [p.cells.speedups[k] for k in sorted(p.cells.speedups)]
    errors = [p.cells.errors[k] for k in sorted(p.cells.errors) if p.cells.errors[k] is not None]
    return {
        "setup_s": (float(np.median(p.setup_s)), "s"),
        "peak_rss_mb": (p.peak_rss_mb, "MB"),
        "cold_p50_ms": (percentile(cold, 50), "ms"),
        "cold_tail_ms": (percentile(cold, tail_percentile(sizes.cold_per_round)), "ms"),
        "cold_plans_per_s": (serve.counts["cold"] / serve.walls_s["cold"], "1/s"),
        "warm_p50_ms": (percentile(warm, 50), "ms"),
        "warm_tail_ms": (percentile(warm, tail_percentile(sizes.warm_per_round)), "ms"),
        "warm_req_per_s": (serve.counts["warm"] / serve.walls_s["warm"], "1/s"),
        "delta_p50_ms": (percentile(deltas, 50), "ms"),
        "delta_tail_ms": (percentile(deltas, tail_percentile(sizes.deltas_per_round)), "ms"),
        "cell_p50_ms": (percentile(cell, 50), "ms"),
        "cells_per_s": (cells.counts["cell"] / cells.walls_s["cell"], "1/s"),
        "sim_speedup_geomean": (
            float(np.exp(np.mean(np.log(speedups)))) if speedups else float("nan"), "x"),
        "model_err_mean": (float(np.mean(errors)) if errors else float("nan"), "ratio"),
    }
