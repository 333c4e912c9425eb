"""Fault policy of the fluid engine: what a schedule does to a run.

``simulate(..., faults=schedule)`` runs the same event loop as a clean
simulation (:func:`repro.sim.engine._run_fluid`).  The loop consults
this module for everything fault-specific:

- **Worker slowdowns** scale an instance's *compute* progress by the
  event factor from its timestamp on (memory traffic is unaffected:
  the straggler model is compute-bound, matching the heterogeneous-
  cluster observation that slow nodes stall on execution, not on DMA).
- **Bandwidth windows** scale the shared main-memory bandwidth during
  ``[start, end)`` -- the max-min water-filling reallocates at every
  window edge, so the piecewise-constant bandwidth profile still
  integrates exactly to the bytes drained.  The PCIe link keeps its
  nominal capacity (it is a point-to-point resource, not the contended
  controller the windows model).
- **Worker failures** permanently remove an instance.  Its unfinished
  work -- the partially drained current phase plus every queued phase --
  is reassigned to the surviving same-kind instance with the least
  remaining bytes (ties to the lowest index), which may resurrect an
  instance that had already finished.  When no same-kind survivor
  exists and work is pending, the run raises a typed
  :class:`~repro.faults.errors.SimFault` instead of silently dropping
  nonzeros.

Every injected fault and every recovery is narrated onto the tracer's
``faults`` track (events ``fault.slowdown`` / ``fault.failure`` /
``fault.bandwidth`` and ``fault.recovery``), so a Chrome trace of a
degraded run shows exactly when the run was perturbed and how it healed.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.traits import WorkerKind
from repro.faults.errors import SimFault
from repro.faults.schedule import (
    BandwidthWindow,
    FaultSchedule,
    FaultSummary,
    WorkerSlowdown,
)
from repro.obs.tracer import SIM, Tracer
from repro.sim.worker_sim import InstancePlan

# e2ebench/layers.py PATCHES wraps ("repro.sim.faulted", "build_plans", ...).
from repro.sim.worker_sim import build_plans  # noqa: F401  (for that PATCHES row)

__all__ = ["FaultInjector", "Timeline", "heir_of"]

_INF = float("inf")


class Timeline:
    """One fluid run's view of a schedule, in global simulated seconds.

    ``points`` holds the run's slowdowns and failures as time-sorted
    ``(t_s, instance, factor)`` triples (``factor`` is ``None`` for a
    failure); events aimed at instances outside the run are dropped.
    ``edges`` are the times at which the run must reallocate even with no
    sub-completion: point events and both ends of every bandwidth window.
    """

    __slots__ = ("points", "windows", "edges")

    def __init__(self, schedule: FaultSchedule, labels: Sequence[str]) -> None:
        index_of = {label: i for i, label in enumerate(labels)}
        # FaultSchedule keeps its events time-sorted.
        self.points: List[Tuple[float, int, Optional[float]]] = [
            (e.t_s, index_of[f"{e.kind}-{e.index}"],
             e.factor if isinstance(e, WorkerSlowdown) else None)
            for e in schedule.events
            if not isinstance(e, BandwidthWindow) and f"{e.kind}-{e.index}" in index_of
        ]
        self.windows = [e for e in schedule.events if isinstance(e, BandwidthWindow)]
        self.edges = sorted(
            {t for t, _, _ in self.points}
            | {w.t_start_s for w in self.windows}
            | {w.t_end_s for w in self.windows}
        )

    def factor_at(self, t_global: float) -> float:
        """Main-memory bandwidth factor at ``t_global`` (windows multiply)."""
        factor = 1.0
        for w in self.windows:
            if w.t_start_s <= t_global < w.t_end_s:
                factor *= w.factor
        return factor

    def next_edge(self, after: float) -> float:
        """The first edge later than ``after`` (``inf`` when none is)."""
        k = bisect_right(self.edges, after)
        return self.edges[k] if k < len(self.edges) else _INF


def heir_of(victim: int, plans: List[InstancePlan], alive: List[bool],
            remaining_bytes: Callable[[int], float], labels: Sequence[str],
            t_global: float) -> int:
    """The survivor that inherits ``victim``'s unfinished work.

    The same-kind live instance with the fewest remaining bytes, ties to
    the lowest index; raises :class:`SimFault` when none is left.
    """
    kind = plans[victim].kind
    survivors = [
        j for j, plan in enumerate(plans) if alive[j] and plan.kind is kind and j != victim
    ]
    if not survivors:
        group = "hot" if kind is WorkerKind.HOT else "cold"
        raise SimFault(group, t_global, labels[victim])
    return min(survivors, key=lambda j: (remaining_bytes(j), j))


class FaultInjector:
    """A schedule applied to the fluid runs of one ``simulate`` call.

    Tallies what the runs actually injected into a :class:`FaultSummary`
    and narrates each fault onto the ``faults`` trace track.
    """

    __slots__ = ("schedule", "tracer", "slowdowns", "failures", "reassigned",
                 "failed_labels")

    def __init__(self, schedule: FaultSchedule, tracer: Optional[Tracer]) -> None:
        self.schedule = schedule
        self.tracer = tracer
        self.slowdowns = 0
        self.failures = 0
        self.reassigned = 0
        self.failed_labels: List[str] = []

    def emit(self, name: str, t_global: float, **args: object) -> None:
        if self.tracer is not None:
            self.tracer.event(
                name, ts=t_global, process=SIM, track="faults", cat="fault", **args
            )

    def slowdown(self, label: str, factor: float, t_global: float) -> None:
        self.slowdowns += 1
        self.emit("fault.slowdown", t_global, instance=label, factor=factor)

    def failure(self, label: str, t_global: float) -> None:
        self.failures += 1
        self.failed_labels.append(label)
        self.emit("fault.failure", t_global, instance=label)

    def recovery(self, dead: str, heir: str, phases: int, t_global: float) -> None:
        self.reassigned += phases
        self.emit("fault.recovery", t_global, dead=dead, heir=heir, phases=phases)

    def summary(self) -> FaultSummary:
        return FaultSummary(
            slowdowns=self.slowdowns,
            failures=self.failures,
            bandwidth_windows=sum(
                isinstance(e, BandwidthWindow) for e in self.schedule.events
            ),
            reassigned_phases=self.reassigned,
            failed_instances=tuple(self.failed_labels),
        )
