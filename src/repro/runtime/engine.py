"""RuntimeEngine: the driver-facing facade over the task runtime.

Owns the scheduler; builds one task graph per RK stage and accumulates
the per-stage :class:`~repro.runtime.scheduler.ScheduleReport` into a
per-step report the observability layer samples (``runtime.*`` gauges,
the run report's Overlap section).
"""

from __future__ import annotations

from typing import Optional

from repro.observability.perfscope import PerfScope
from repro.runtime.rk3graph import build_stage_graph
from repro.runtime.scheduler import RUNTIME_STREAM, ScheduleReport, Scheduler


class RuntimeEngine:
    """Task-graph execution of the CRoCCo advance for one simulation."""

    def __init__(self, sim) -> None:
        self.sim = sim
        #: the simulation's fault injector, if a fault plan is active
        self.faults = getattr(sim, "faults", None)
        #: task-lifecycle tracing + overhead attribution collector
        self.perfscope = PerfScope(enabled=sim.config.perfscope)
        self.scheduler = Scheduler(profiler=sim.profiler,
                                   perfscope=self.perfscope)
        self._acc: Optional[ScheduleReport] = None
        #: merged report of the most recent completed step
        self.last_step_report: Optional[ScheduleReport] = None
        #: merged report of the whole run
        self.total_report = ScheduleReport()
        #: lifecycle attribution of the most recent completed step
        self.last_step_perf = None  # type: Optional[object]  # StepPerf

    def bind_tracer(self, tracer, rank: int = 0) -> None:
        """Route per-task spans to ``tracer`` on the runtime track."""
        self.scheduler.tracer = tracer
        self.scheduler.trace_rank = rank
        tracer.set_thread_name(rank, RUNTIME_STREAM, "runtime driver")

    # -- step execution ---------------------------------------------------
    def begin_step(self) -> None:
        self._acc = ScheduleReport()
        self.perfscope.begin_step()

    def run_stage(self, dt: float, stage: int) -> ScheduleReport:
        graph = build_stage_graph(self.sim, dt, stage)
        if self.faults is not None:
            self.faults.instrument(graph, step=self.sim.step_count,
                                   stage=stage)
        report = self.scheduler.run(graph)
        if self._acc is not None:
            self._acc.merge(report)
        return report

    def end_step(self) -> None:
        if self._acc is not None:
            self.last_step_report = self._acc
            self.total_report.merge(self._acc)
            self._acc = None
        self.last_step_perf = self.perfscope.finalize_step()

    def abort_step(self) -> None:
        """Discard the partially accumulated step (watchdog rollback)."""
        self._acc = None
        self.perfscope.abort_step()
