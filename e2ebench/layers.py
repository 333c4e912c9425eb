"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``.  Instead :func:`install` replaces the
names the program looks up at each layer boundary (for example
``repro.pipeline.preprocess.build_format``) with thin wrappers that open
a span in a :class:`Recorder`.  The same wrappers run in the benchmark's
own process and, through ``launcher.py``, in the plan server.

A span is ``(id, name, start, end, parent, op, stage, attrs)``: ``parent``
is the enclosing recorded span on the same thread, ``op`` the client-side
operation id that was current when the span opened, and ``stage`` whether
it ran during set-up or the measured region.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Recorder", "install", "PATCHES", "summarize", "layer_metrics"]


class Recorder:
    """Thread-safe in-memory span store; records nothing while disabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.stage = "setup"
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, op_id: str) -> Iterator[None]:
        """Tag every span this thread opens inside the block with ``op_id``."""
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = previous

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Record one span; the yielded dict takes extra attributes."""
        if not self.enabled:
            yield attrs
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield attrs
        finally:
            end = time.monotonic()
            stack.pop()
            record = {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "op": getattr(self._local, "op", None),
                "stage": self.stage,
                "thread": threading.current_thread().name,
                "attrs": attrs,
            }
            with self._lock:
                self.spans.append(record)

    def save(self, path: str, source: str) -> None:
        """Write every span, tagged with its process ``source``, as JSON."""
        with self._lock:
            spans = [dict(s, source=source) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)


# ----------------------------------------------------------------------
# Wrappers.  Each annotator sees (args, kwargs, result) and returns span
# attributes; the span name may depend on the call (faulted simulate).


def _store_get(args, kwargs, result) -> Dict[str, Any]:
    return {"hit": result is not None}


def _delta_apply(args, kwargs, result) -> Dict[str, Any]:
    _, report = result
    return {"dirty": report.n_dirty_tiles, "tiles": report.tiles_after}


def _repair(args, kwargs, result) -> Dict[str, Any]:
    return {"repaired": result.stats.tiles_repaired}


def _simulate(args, kwargs, result) -> Dict[str, Any]:
    return {"intervals": len(result.bandwidth_profile)}


def _simulate_name(args, kwargs) -> str:
    faults = kwargs.get("faults", args[5] if len(args) > 5 else None)
    return "sim.simulate_faulted" if faults is not None and not faults.empty else "sim.simulate"


#: ``(module, attribute path, span name, annotator)``: every lookup the
#: benchmark times.  A name imported into several modules is patched in
#: each module that calls it.
PATCHES: Tuple[Tuple[str, str, Any, Optional[Callable]], ...] = (
    ("repro.service.protocol", "PlanRequest.resolve_matrix", "sparse.generate", None),
    ("repro.pipeline.preprocess", "TiledMatrix", "sparse.tile", None),
    ("repro.experiments.runner", "TiledMatrix", "sparse.tile", None),
    ("repro.core.partition", "HotTilesPartitioner.partition", "core.partition", None),
    ("repro.core.model", "AnalyticalModel.tile_costs", "core.tile_costs", None),
    ("repro.streaming.lineage", "repair_plan", "core.repair", _repair),
    ("repro.experiments.runner", "calibrate_architecture", "core.calibrate", None),
    ("repro.experiments.runner", "iunaware_assignment", "core.iunaware", None),
    ("repro.pipeline.preprocess", "HotTilesPreprocessor.run", "pipeline.preprocess", None),
    ("repro.pipeline.preprocess", "build_format", "pipeline.build_format", None),
    ("repro.service.store", "PlanStore.save_artifacts", "service.save", None),
    ("repro.service.store", "PlanStore.put", "service.store_put", None),
    ("repro.service.store", "PlanStore.get", "service.store_get", _store_get),
    ("repro.streaming.lineage", "apply_delta_tiled", "streaming.apply", _delta_apply),
    ("repro.sim.engine", "build_plans", "sim.build_plans", None),
    ("repro.sim.faulted", "build_plans", "sim.build_plans", None),
    ("repro.sim.engine", "simulate", _simulate_name, _simulate),
    ("repro.experiments.runner", "simulate", _simulate_name, _simulate),
)


def _wrap(recorder: Recorder, fn: Callable, name: Any, annotate: Optional[Callable]) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not recorder.enabled:
            return fn(*args, **kwargs)
        span_name = name(args, kwargs) if callable(name) else name
        with recorder.span(span_name) as attrs:
            result = fn(*args, **kwargs)
            if annotate is not None:
                attrs.update(annotate(args, kwargs, result))
            return result

    return wrapper


def install(recorder: Recorder) -> Callable[[], None]:
    """Patch every :data:`PATCHES` entry; returns the undo function."""
    undo: List[Tuple[Any, str, Any]] = []
    for module_name, path, name, annotate in PATCHES:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, _wrap(recorder, original, name, annotate))
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# ----------------------------------------------------------------------
# Aggregation


def _median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def summarize(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per (source, stage, name) rows: calls, median, total and self time in ms.

    Self time is a span's duration minus its direct children's, which
    ran on the same thread inside it.
    """
    child_ms: Dict[Tuple[str, int], float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["source"], s["parent"])
            child_ms[key] = child_ms.get(key, 0.0) + (s["end"] - s["start"]) * 1e3
    rows: Dict[Tuple[str, str, str], Dict[str, Any]] = {}
    for s in spans:
        source = s["source"]
        dur = (s["end"] - s["start"]) * 1e3
        row = rows.setdefault(
            (source, s["stage"], s["name"]),
            {"source": source, "stage": s["stage"], "name": s["name"], "durs": [],
             "self_ms": 0.0},
        )
        row["durs"].append(dur)
        row["self_ms"] += dur - child_ms.get((source, s["id"]), 0.0)
    out = []
    for row in sorted(rows.values(), key=lambda r: (r["source"], r["stage"], r["name"])):
        durs = row.pop("durs")
        row.update(calls=len(durs), median_ms=statistics.median(durs), total_ms=sum(durs))
        out.append(row)
    return out


def layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, Optional[float]]:
    """The span-derived per-layer metrics (see README.md for the map).

    ``spans`` holds the benchmark process's spans and the server's
    (``source == "server"``); set-up spans only feed ``core.calibrate_s``.
    """
    measured = [s for s in spans if s["stage"] == "measure"]

    def durs(name: str, source: Optional[str] = None, **match: Any) -> List[float]:
        return [
            (s["end"] - s["start"]) * 1e3
            for s in measured
            if s["name"] == name
            and (source is None or s["source"] == source)
            and all(s["attrs"].get(k) == v for k, v in match.items())
        ]

    children: Dict[Tuple[str, int], List[Dict[str, Any]]] = {}
    for s in measured:
        if s["parent"] is not None:
            children.setdefault((s["source"], s["parent"]), []).append(s)

    def kids(span: Dict[str, Any], name: str) -> List[Dict[str, Any]]:
        found = children.get((span["source"], span["id"]), [])
        return sorted((c for c in found if c["name"] == name), key=lambda c: c["start"])

    # HotTilesPreprocessor.run calls build_format for the hot and cold
    # sides, then once more for the homogeneous baseline only Fig. 18
    # needs; the last call of each run is that baseline.
    formats, baseline = [], []
    for run in (s for s in measured if s["name"] == "pipeline.preprocess"):
        calls = kids(run, "pipeline.build_format")
        if calls:
            baseline.append((calls[-1]["end"] - calls[-1]["start"]) * 1e3)
            formats.append(sum((c["end"] - c["start"]) * 1e3 for c in calls[:-1]))

    tile_costs = [
        float(len(kids(s, "core.tile_costs")))
        for s in measured
        if s["name"] == "core.partition"
    ]
    calibrate = [
        (s["end"] - s["start"])
        for s in spans
        if s["name"] == "core.calibrate" and s["stage"] == "setup"
        and s["source"] == "bench"
    ]
    applies = [s for s in measured if s["name"] == "streaming.apply"]
    repairs = [s for s in measured if s["name"] == "core.repair"]

    def per_interval(name: str) -> Optional[float]:
        sims = [s for s in measured if s["name"] == name]
        intervals = sum(s["attrs"].get("intervals", 0) for s in sims)
        if not intervals:
            return None
        return sum(s["end"] - s["start"] for s in sims) * 1e6 / intervals

    cells = [s for s in measured if s["name"] == "client.cell"]
    sims = [s for s in measured if s["name"] in ("sim.simulate", "sim.simulate_faulted")
            and s["source"] == "bench"]
    return {
        "sparse.generate_ms": _median(durs("sparse.generate")),
        "sparse.tile_ms": _median(durs("sparse.tile")),
        "core.partition_ms": _median(durs("core.partition")),
        "core.tile_costs_calls": _median(tile_costs),
        "core.repair_ms": _median(durs("core.repair")),
        "core.calibrate_s": sum(calibrate) if calibrate else None,
        "core.iunaware_ms": _median(durs("core.iunaware")),
        "pipeline.formats_ms": _median(formats),
        "pipeline.baseline_format_ms": _median(baseline),
        "service.save_ms": _median(durs("service.save", "server")),
        "service.store_put_ms": _median(durs("service.store_put", "server")),
        "service.store_get_ms": _median(durs("service.store_get", "server", hit=True)),
        "streaming.apply_ms": _median(durs("streaming.apply")),
        "streaming.tiles_repaired": _median([float(s["attrs"]["repaired"]) for s in repairs]),
        "streaming.dirty_tile_fraction": _median(
            [s["attrs"]["dirty"] / s["attrs"]["tiles"] for s in applies if s["attrs"]["tiles"]]
        ),
        "sim.build_plans_ms": _median(durs("sim.build_plans", "bench")),
        "sim.simulate_ms": _median(durs("sim.simulate", "bench")),
        "sim.simulate_faulted_ms": _median(durs("sim.simulate_faulted", "bench")),
        "sim.us_per_interval.clean": per_interval("sim.simulate"),
        "sim.us_per_interval.faulted": per_interval("sim.simulate_faulted"),
        "sim.simulate_calls": len(sims) / len(cells) if cells else None,
    }
