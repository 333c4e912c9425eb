"""Golden regression test for fault-injected simulations.

Every case in ``tests/golden/faulted_sims.json`` is one
``simulate(..., faults=schedule)`` call: a fixed matrix, architecture,
execution mode and fault schedule, stored with the exact outputs it
produced -- ``float.hex`` of every float in the result, a sha256 of the
bandwidth profile, the ``FaultSummary``, or the ``SimFault`` fields for
runs that must raise.  Comparison is exact: a faulted result that drifts
by a single ULP fails.

The cases cover seeded ``FaultSchedule.random`` draws on three
architectures in both execution modes, plus hand-built schedules for the
corners random draws rarely hit: a failure whose heir had already
finished (and is resurrected), the last survivor of a group killed, a
serial-mode failure timed in the cold phase, overlapping bandwidth
windows, and events exactly at the fault-free makespan.

Regenerate the snapshot (only when a change to faulted results is
intended) with::

    PYTHONPATH=src python tests/sim/test_faulted_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.arch.configs import piuma, spade_sextans, spade_sextans_pcie
from repro.core.partition import ExecutionMode
from repro.faults.errors import SimFault
from repro.faults.schedule import (
    BandwidthWindow,
    FaultSchedule,
    WorkerFailure,
    WorkerSlowdown,
)
from repro.sim.engine import _run_fluid, simulate
from repro.sim.worker_sim import build_plans
from repro.sparse import generators
from repro.sparse.tiling import TiledMatrix

GOLDEN = Path(__file__).parent.parent / "golden" / "faulted_sims.json"

ARCHS = {
    "spade": lambda: spade_sextans(4),
    "pcie": lambda: spade_sextans_pcie(4),
    "piuma": piuma,
}

#: (schedule seed, failure_rate, slowdown_rate, bandwidth_rate)
RANDOM_DRAWS = ((0, 0.5, 1.0, 1.0), (1, 2.0, 2.0, 1.0), (2, 4.0, 3.0, 2.0), (3, 6.0, 6.0, 3.0))


def _inputs(arch_name, seed, frac):
    arch = ARCHS[arch_name]()
    matrix = generators.rmat(scale=9, nnz=4_000, seed=seed)
    tiled = TiledMatrix(matrix, arch.tile_height, arch.tile_width)
    assignment = np.random.default_rng(seed).random(tiled.n_tiles) < frac
    return arch, tiled, assignment


def _hex(x):
    return float(x).hex()


def _group(stats):
    return {
        "instances": stats.instances,
        "nnz": stats.nnz,
        "flops": _hex(stats.flops),
        "bytes": _hex(stats.bytes),
        "busy_s": _hex(stats.busy_s),
    }


def _outcome(case):
    """Run one case; its exact result (or the SimFault it raises)."""
    arch, tiled, assignment = _inputs(case["arch"], case["seed"], case["frac"])
    schedule = FaultSchedule.from_dict(case["schedule"])
    try:
        result = simulate(
            arch, tiled, assignment, ExecutionMode(case["mode"]), faults=schedule
        )
    except SimFault as exc:
        return {"sim_fault": {"kind": exc.kind, "t_s": _hex(exc.t_s),
                              "instance": exc.instance}}
    profile = np.asarray(result.bandwidth_profile, dtype="<f8")
    return {
        "time_s": _hex(result.time_s),
        "merge_time_s": _hex(result.merge_time_s),
        "hot": _group(result.hot),
        "cold": _group(result.cold),
        "profile_len": len(result.bandwidth_profile),
        "profile_sha256": hashlib.sha256(profile.tobytes()).hexdigest(),
        "faults": result.faults.to_dict(),
    }


def _load_cases():
    return json.loads(GOLDEN.read_text())["cases"] if GOLDEN.exists() else []


@pytest.mark.parametrize("case", _load_cases(), ids=lambda c: c["name"])
def test_faulted_result_matches_golden(case):
    assert _outcome(case) == case["expected"], (
        f"faulted simulation {case['name']!r} diverged from "
        "tests/golden/faulted_sims.json"
    )


def test_golden_covers_every_corner():
    names = {case["name"] for case in _load_cases()}
    assert len(names) == len(_load_cases())
    for arch in ARCHS:
        for mode in ExecutionMode:
            assert any(n.startswith(f"random-{arch}-{mode.value}-") for n in names)
    assert {"resurrected-heir", "last-survivor-killed", "serial-cold-phase-failure",
            "overlapping-windows", "events-at-makespan"} <= names
    raising = [c for c in _load_cases() if "sim_fault" in c["expected"]]
    assert [c["name"] for c in raising] == ["last-survivor-killed"]


# ----------------------------------------------------------------------
# Snapshot generation


def _case(name, arch, mode, seed, frac, events):
    return {"name": name, "arch": arch, "mode": mode.value, "seed": seed,
            "frac": frac, "schedule": FaultSchedule(events).to_dict()}


def _clean(arch_name, seed, frac, mode=ExecutionMode.PARALLEL):
    arch, tiled, assignment = _inputs(arch_name, seed, frac)
    return simulate(arch, tiled, assignment, mode)


def _generate_cases():
    cases = []
    for arch_name in ARCHS:
        for mode in ExecutionMode:
            for draw, f_rate, s_rate, b_rate in RANDOM_DRAWS:
                arch = ARCHS[arch_name]()
                base = _clean(arch_name, draw, 0.4, mode)
                schedule = FaultSchedule.random(
                    seed=draw, horizon_s=base.time_s,
                    hot_instances=arch.hot.count, cold_instances=arch.cold.count,
                    failure_rate=f_rate, slowdown_rate=s_rate, bandwidth_rate=b_rate,
                )
                cases.append(_case(f"random-{arch_name}-{mode.value}-{draw}",
                                   arch_name, mode, draw, 0.4, schedule.events))

    # Kill the cold instance that finishes last, after every other cold
    # instance has finished: its heir must be brought back to life.
    arch, tiled, assignment = _inputs("piuma", 7, 0.3)
    hot_plans, cold_plans = build_plans(arch, tiled, assignment)
    _, done_at, _ = _run_fluid(arch, hot_plans + cold_plans)
    cold_done = done_at[len(hot_plans):]
    victim = int(np.argmax(cold_done))
    t_fail = float(np.sort(cold_done)[-2] + cold_done[victim]) / 2
    cases.append(_case("resurrected-heir", "piuma", ExecutionMode.PARALLEL, 7, 0.3,
                       [WorkerFailure(t_s=t_fail, kind="cold", index=victim)]))

    # Every cold worker dies, one after another: the last death raises.
    base = _clean("piuma", 3, 0.3)
    cases.append(_case(
        "last-survivor-killed", "piuma", ExecutionMode.PARALLEL, 3, 0.3,
        [WorkerFailure(t_s=base.time_s * (i + 1) / 8, kind="cold", index=i)
         for i in range(piuma().cold.count)],
    ))

    base = _clean("spade", 5, 0.4, ExecutionMode.SERIAL)
    cases.append(_case(
        "serial-cold-phase-failure", "spade", ExecutionMode.SERIAL, 5, 0.4,
        [WorkerFailure(t_s=base.hot.busy_s + base.cold.busy_s * 0.25,
                       kind="cold", index=2),
         WorkerSlowdown(t_s=base.hot.busy_s * 0.5, kind="cold", index=3, factor=3.0)],
    ))

    base = _clean("pcie", 9, 0.5)
    t = base.time_s
    cases.append(_case(
        "overlapping-windows", "pcie", ExecutionMode.PARALLEL, 9, 0.5,
        [BandwidthWindow(t_start_s=0.1 * t, t_end_s=0.6 * t, factor=0.5),
         BandwidthWindow(t_start_s=0.3 * t, t_end_s=0.9 * t, factor=0.4),
         BandwidthWindow(t_start_s=0.3 * t, t_end_s=0.4 * t, factor=0.8)],
    ))

    base = _clean("piuma", 11, 0.4)
    makespan = base.time_s - base.merge_time_s
    cases.append(_case(
        "events-at-makespan", "piuma", ExecutionMode.PARALLEL, 11, 0.4,
        [WorkerSlowdown(t_s=makespan, kind="hot", index=0, factor=2.0),
         WorkerFailure(t_s=makespan, kind="cold", index=1),
         BandwidthWindow(t_start_s=makespan, t_end_s=2 * makespan, factor=0.5)],
    ))
    return cases


def _regenerate():
    cases = _generate_cases()
    for case in cases:
        case["expected"] = _outcome(case)
    GOLDEN.write_text(json.dumps({"version": 1, "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")


if __name__ == "__main__":
    _regenerate()
