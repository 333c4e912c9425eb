"""End-to-end benchmark of the HotTiles planner.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload plan-serve --seed 1 --seconds 10 --trace 0

Workloads: ``plan-serve``, ``delta-stream``, ``experiment-cells`` (see
README.md for what each one drives and why).  ``--trace 0`` measures
with nothing instrumented and prints the end-to-end metrics; ``--trace
1`` runs the workload untraced, then again with the layer wrappers of
``layers.py`` installed in this process and in the plan server, prints
the per-layer table and the per-layer metrics, and writes every span to
``.e2ebench_out/``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import uuid
from typing import Any, Dict, List, Optional, Tuple

import harness
import layers

ROOT = harness.ROOT

WORKLOADS = tuple(harness.PRIMARY)

#: Per-layer metric -> (unit, end-to-end metric it should move, workload).
LAYER_MAP: Dict[str, Tuple[str, str, str]] = {
    "sparse.generate_ms": ("ms", "cold_p50_ms, setup_s", "plan-serve, experiment-cells"),
    "sparse.tile_ms": ("ms", "cold_p50_ms, cell_p50_ms", "plan-serve, experiment-cells"),
    "core.partition_ms": ("ms", "cold_p50_ms, cell_p50_ms", "plan-serve, experiment-cells"),
    "core.tile_costs_calls": ("count", "core.partition_ms", "plan-serve, experiment-cells"),
    "core.repair_ms": ("ms", "delta_p50_ms", "delta-stream"),
    "core.calibrate_s": ("s", "setup_s", "experiment-cells"),
    "core.iunaware_ms": ("ms", "cell_p50_ms", "experiment-cells"),
    "pipeline.formats_ms": ("ms", "cold_p50_ms", "plan-serve"),
    "pipeline.baseline_format_ms": ("ms", "cold_p50_ms", "plan-serve"),
    "service.save_ms": ("ms", "cold_p50_ms", "plan-serve"),
    "service.store_put_ms": ("ms", "cold_p50_ms", "plan-serve"),
    "service.store_get_ms": ("ms", "warm_p50_ms", "plan-serve"),
    "service.request_ms": ("ms", "warm_p50_ms", "plan-serve"),
    "service.queue_wait_ms": ("ms", "cold_tail_ms", "plan-serve"),
    "service.http_transport_ms": ("ms", "warm_p50_ms", "plan-serve"),
    "service.store_hit_ratio.cold": ("ratio", "cold_p50_ms (must be 0)", "plan-serve"),
    "service.store_hit_ratio.warm": ("ratio", "warm_p50_ms (must be 1)", "plan-serve"),
    "streaming.apply_ms": ("ms", "delta_p50_ms", "delta-stream"),
    "streaming.tiles_repaired": ("count", "core.repair_ms", "delta-stream"),
    "streaming.dirty_tile_fraction": ("ratio", "core.repair_ms", "delta-stream"),
    "sim.build_plans_ms": ("ms", "cell_p50_ms", "experiment-cells"),
    "sim.simulate_ms": ("ms", "cells_per_s", "experiment-cells"),
    "sim.simulate_faulted_ms": ("ms", "cells_per_s", "experiment-cells"),
    "sim.us_per_interval.clean": ("us", "sim.simulate_ms", "experiment-cells"),
    "sim.us_per_interval.faulted": ("us", "sim.simulate_faulted_ms", "experiment-cells"),
    "sim.simulate_calls": ("count", "cells_per_s", "experiment-cells"),
    "obs.trace_overhead_pct": ("%", "none (traced vs untraced)", "every workload"),
}

#: The latency whose traced/untraced ratio is ``obs.trace_overhead_pct``.
HEADLINE = {"plan-serve": ("serve", "cold"), "delta-stream": ("delta", "delta"),
            "experiment-cells": ("cells", "cell")}


def _x_spans(events: List[Dict[str, Any]], name: str) -> List[Dict[str, Any]]:
    return [e for e in events if e.get("ph") == "X" and e["name"] == name]


def server_trace_metrics(events: List[Dict[str, Any]], warm_client_ms: List[float]
                         ) -> Dict[str, Optional[float]]:
    """Metrics from the server's own ``service.*`` / ``http.request`` spans."""
    warm = [e for e in _x_spans(events, "service.request")
            if e["args"].get("outcome") == "store"]
    inner: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
    for e in warm:
        inner.setdefault((e["pid"], e["tid"]), []).append(e)
    warm_http = [
        h["dur"] / 1e3
        for h in _x_spans(events, "http.request")
        if h["args"].get("path") == "/plan"
        and any(h["ts"] <= r["ts"] and r["ts"] + r["dur"] <= h["ts"] + h["dur"]
                for r in inner.get((h["pid"], h["tid"]), ()))
    ]
    queue = [e["dur"] / 1e3 for e in _x_spans(events, "service.queue_wait")]
    return {
        "service.request_ms": statistics.median([e["dur"] / 1e3 for e in warm]) if warm else None,
        "service.queue_wait_ms": statistics.median(queue) if queue else None,
        "service.http_transport_ms": (
            statistics.median(warm_client_ms) - statistics.median(warm_http)
            if warm_http else None
        ),
    }


def print_table(rows: List[Dict[str, Any]], metrics: Dict[str, Any]) -> None:
    print(f"{'span':<28} {'process':<7} {'stage':<7} {'calls':>6} {'median ms':>10} "
          f"{'total ms':>10} {'self ms':>10}")
    for r in rows:
        print(f"{r['name']:<28} {r['source']:<7} {r['stage']:<7} {r['calls']:>6} "
              f"{r['median_ms']:>10.3f} "
              f"{r['total_ms']:>10.1f} {r['self_ms']:>10.1f}")
    print()
    print(f"{'per-layer metric':<30} {'value':>12} {'unit':<6} moves (workload)")
    for name, (unit, moves, workload) in LAYER_MAP.items():
        value = metrics.get(name)
        shown = "n/a" if value is None else f"{value:12.4f}"
        print(f"{name:<30} {shown:>12} {unit:<6} {moves} ({workload})")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="e2ebench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # SIGTERM unwinds like an exception, so the server is stopped and the
    # scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    sizes = harness.FULL if args.scale == "full" else harness.TINY
    workdir = ROOT / ".e2ebench_work" / uuid.uuid4().hex[:12]
    env = dict(os.environ, HOTTILES_CACHE_DIR=str(workdir / "cache"))
    os.environ["HOTTILES_CACHE_DIR"] = env["HOTTILES_CACHE_DIR"]
    recorder = layers.Recorder()
    try:
        untraced = harness.run_pass(
            args.workload, sizes, args.seed, args.seconds, workdir / "untraced", env,
            recorder, reps=sizes.setup_reps if not args.trace else 1,
        )
        passes = [untraced]
        if args.trace:
            uninstall = layers.install(recorder)
            recorder.enabled = True
            try:
                traced = harness.run_pass(args.workload, sizes, args.seed, args.seconds,
                                          workdir / "traced", env, recorder, reps=1)
            finally:
                recorder.enabled = False
                uninstall()
            passes.append(traced)
            spans = [dict(s, source="bench") for s in recorder.spans] + traced.server_spans
            metrics = per_layer(args.workload, untraced, traced, spans)
            print_table(layers.summarize(spans), {k: v for k, (v, _) in metrics.items()})
            out_dir = ROOT / ".e2ebench_out"
            out_dir.mkdir(exist_ok=True)
            with open(out_dir / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
                json.dump({"spans": spans, "server_trace": traced.server_trace}, fh)
        else:
            metrics = harness.end_to_end(untraced, sizes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".e2ebench_work").rmdir()
        except OSError:
            pass

    tally = harness.Tally()
    for p in passes:
        tally.attempted += p.tally.attempted
        tally.failed += p.tally.failed
        tally.reasons += p.tally.reasons
    for name, (value, _) in metrics.items():
        tally.check(value is not None and math.isfinite(value), f"metric {name} not measured")
    for reason in tally.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value if value is not None and math.isfinite(value) else -1.0,
                   "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def per_layer(workload: str, untraced, traced, spans) -> Dict[str, Tuple[Optional[float], str]]:
    """Every per-layer metric of :data:`LAYER_MAP`, as ``name -> (value, unit)``."""
    values = layers.layer_metrics(spans)
    values.update(server_trace_metrics(traced.server_trace,
                                       traced.serve.samples.latencies_ms["warm"]))
    values["service.store_hit_ratio.cold"] = traced.serve.hit_ratio("cold")
    values["service.store_hit_ratio.warm"] = traced.serve.hit_ratio("warm")
    surface, phase = HEADLINE[workload]
    base = harness.percentile(getattr(untraced, surface).samples.latencies_ms[phase], 50)
    with_trace = harness.percentile(getattr(traced, surface).samples.latencies_ms[phase], 50)
    values["obs.trace_overhead_pct"] = (with_trace / base - 1.0) * 100.0
    return {name: (values.get(name), unit) for name, (unit, _, _) in LAYER_MAP.items()}


if __name__ == "__main__":
    sys.exit(main())
