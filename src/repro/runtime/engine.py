"""RuntimeEngine: the driver-facing facade over the task runtime.

Owns the scheduler and the stage program — built on first use after
level storage is built or cleared (ComputeDt's or the first RK stage's),
run by every stage until then —
and accumulates the per-stage
:class:`~repro.runtime.scheduler.ScheduleReport` into a per-step report the
observability layer samples (``runtime.*`` gauges, the run report's Overlap
and Bottleneck sections).
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
        #: stage graphs built over the run
        self.graphs_built = 0
        self._acc: Optional[ScheduleReport] = None
        #: merged report of the most recent completed step
        self.last_step_report: Optional[ScheduleReport] = None
        #: merged report of the whole run
        self.total_report = ScheduleReport()

    # -- the stage graph ----------------------------------------------------
    def stage_graph(self) -> StageGraph:
        """The program of the current level storage, built on first use."""
        if self._graph is None:
            self._graph = build_stage_graph(self.sim)
            self.graphs_built += 1
        return self._graph

    def drop_graph(self) -> None:
        """Forget the stage graph (level storage is being built or cleared:
        ``Crocco._build_level_storage`` / ``_clear_level_storage``)."""
        self._graph = None

    # -- step execution ---------------------------------------------------
    def begin_step(self) -> None:
        self._acc = ScheduleReport()

    def run_stage(self, dt: float, stage: int) -> ScheduleReport:
        graph = self.stage_graph()
        graph.args.dt, graph.args.stage = dt, stage
        tasks = graph.stage_tasks(stage)
        armed = None
        if self.faults is not None:
            armed = self.faults.arm(tasks, step=self.sim.step_count,
                                    stage=stage)
        report = self.scheduler.run(tasks, armed)
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
