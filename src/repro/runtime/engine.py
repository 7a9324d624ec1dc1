"""RuntimeEngine: the driver-facing facade over the task runtime.

Owns the scheduler and the stage graph, built once per level-storage
layout and replayed for every RK stage until a regrid replaces it, and
accumulates the per-stage :class:`~repro.runtime.scheduler.ScheduleReport`
into a per-step report the observability layer samples (``runtime.*``
gauges, the run report's Overlap and Bottleneck sections).
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.rk3graph import StageGraph, build_stage_graph
from repro.runtime.scheduler import ScheduleReport, Scheduler


class RuntimeEngine:
    """Task-graph execution of the CRoCCo advance for one simulation."""

    def __init__(self, sim) -> None:
        self.sim = sim
        #: the simulation's fault injector, if a fault plan is active
        self.faults = getattr(sim, "faults", None)
        self.scheduler = Scheduler(profiler=sim.profiler)
        self._graph: Optional[StageGraph] = None
        self._layout = ()
        #: stage graphs built over the run (one per level-storage layout)
        self.graphs_built = 0
        self._acc: Optional[ScheduleReport] = None
        #: merged report of the most recent completed step
        self.last_step_report: Optional[ScheduleReport] = None
        #: merged report of the whole run
        self.total_report = ScheduleReport()

    # -- the stage graph ----------------------------------------------------
    def stage_graph(self) -> StageGraph:
        """The graph of the current level storage, built on first use and
        keyed on the identity of every level's ``state`` / ``du`` /
        ``coords`` MultiFab and ``batches`` list (so also the number of
        levels); cleared storage drops it (``Crocco._clear_level_storage``)."""
        sim = self.sim
        layout = tuple(store[lev] for lev in range(sim.finest_level + 1)
                       for store in (sim.state, sim.du, sim.coords,
                                     sim.batches))
        if (self._graph is None or len(layout) != len(self._layout)
                or any(a is not b for a, b in zip(layout, self._layout))):
            self._graph = build_stage_graph(sim)
            self._layout = layout
            self.graphs_built += 1
        return self._graph

    def drop_graph(self) -> None:
        """Forget the stage graph (level storage is being replaced)."""
        self._graph, self._layout = None, ()

    # -- step execution ---------------------------------------------------
    def begin_step(self) -> None:
        self._acc = ScheduleReport()

    def run_stage(self, dt: float, stage: int) -> ScheduleReport:
        graph = self.stage_graph()
        graph.args.dt, graph.args.stage = dt, stage
        ntasks = graph.ntasks(stage)
        armed = None
        if self.faults is not None:
            armed = self.faults.arm(graph.tasks[:ntasks],
                                    step=self.sim.step_count, stage=stage)
        report = self.scheduler.run(graph, ntasks, armed)
        if self._acc is not None:
            self._acc.merge(report)
        return report

    def end_step(self) -> None:
        if self._acc is not None:
            self.last_step_report = self._acc
            self.total_report.merge(self._acc)
            self._acc = None

    def abort_step(self) -> None:
        """Discard the partially accumulated step (watchdog rollback)."""
        self._acc = None
