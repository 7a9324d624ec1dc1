"""RuntimeEngine: the driver-facing facade over the task runtime.

Owns the executor, the shared-memory arena (pool mode), and the
scheduler; builds one task graph per RK stage and accumulates the
per-stage :class:`~repro.runtime.scheduler.ScheduleReport` into a
per-step report the observability layer samples (``runtime.*`` gauges,
the run report's Overlap section).
"""

from __future__ import annotations

from typing import Optional

from repro.observability.perfscope import PerfScope
from repro.runtime.executors import make_executor, set_worker_context
from repro.runtime.rk3graph import build_stage_graph
from repro.runtime.scheduler import (RUNTIME_STREAM_BASE, ScheduleReport,
                                     Scheduler)
from repro.runtime.shm import SharedArena

#: MultiFab tags a level contributes to the shared arena
LEVEL_TAGS = ("state", "du", "coords")


class RuntimeEngine:
    """Task-graph execution of the CRoCCo advance for one simulation."""

    def __init__(self, sim) -> None:
        self.sim = sim
        #: the simulation's fault injector, if a fault plan is active
        self.faults = getattr(sim, "faults", None)
        self.executor = make_executor(sim.config.executor, sim.config.workers,
                                      supervision=self._supervision(sim))
        self.arena = SharedArena() if self.is_pool else None
        if self.is_pool:
            set_worker_context(sim.kernels, sim.case)
        #: task-lifecycle tracing + overhead attribution collector
        self.perfscope = PerfScope(enabled=sim.config.perfscope)
        self.scheduler = Scheduler(self.executor, profiler=sim.profiler,
                                   perfscope=self.perfscope)
        self._acc: Optional[ScheduleReport] = None
        self._closed = False
        #: merged report of the most recent completed step
        self.last_step_report: Optional[ScheduleReport] = None
        #: merged report of the whole run
        self.total_report = ScheduleReport()
        #: launches merged from pool workers during the most recent
        #: completed step (0 on inline executors)
        self.last_step_worker_launches = 0
        #: lifecycle attribution of the most recent completed step
        self.last_step_perf = None  # type: Optional[object]  # StepPerf

    @staticmethod
    def _supervision(sim) -> Optional[dict]:
        """Supervisor knobs from the simulation's config (None = bare pool)."""
        cfg = sim.config
        if not cfg.supervise:
            return None
        return {
            "task_retries": cfg.task_retries,
            "task_timeout": cfg.task_timeout,
            "max_pool_restarts": cfg.max_pool_restarts,
            "stats": sim.resilience,
        }

    @property
    def is_pool(self) -> bool:
        return self.executor.name == "pool"

    @property
    def name(self) -> str:
        return self.executor.name

    def bind_tracer(self, tracer, rank: int = 0) -> None:
        """Route per-task spans to ``tracer`` on named worker tracks."""
        self.scheduler.tracer = tracer
        self.scheduler.trace_rank = rank
        tracer.set_thread_name(rank, RUNTIME_STREAM_BASE, "runtime driver")
        for w in range(1, getattr(self.executor, "nworkers", 1) + 1):
            tracer.set_thread_name(rank, RUNTIME_STREAM_BASE + w,
                                   f"runtime worker {w}")

    # -- level storage ----------------------------------------------------
    def adopt_level(self, lev: int) -> None:
        """Re-home a level's MultiFabs into shared memory (pool mode)."""
        if self.arena is None:
            return
        stores = {"state": self.sim.state, "du": self.sim.du,
                  "coords": self.sim.coords}
        for tag in LEVEL_TAGS:
            self.arena.adopt_multifab((tag, lev), stores[tag][lev])

    def release_level(self, lev: int) -> None:
        """Copy a level's data back to the heap and free its segments."""
        if self.arena is None:
            return
        for tag in LEVEL_TAGS:
            self.arena.release((tag, lev))

    # -- step execution ---------------------------------------------------
    def begin_step(self) -> None:
        self._acc = ScheduleReport()
        self.perfscope.begin_step()

    def run_stage(self, dt: float, stage: int) -> ScheduleReport:
        graph = build_stage_graph(self.sim, dt, stage, arena=self.arena)
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
        # add the step's worker-side launch tables into the owning ranks'
        # devices: per-kernel accounting is the same under every executor
        tables = self.executor.drain_worker_tables()
        self.last_step_worker_launches = sum(
            t.total() for t in tables.values())
        if tables:
            self.sim.kernels.exec_backend.merge_worker_tables(tables)

    def abort_step(self) -> None:
        """Discard the partially accumulated step (watchdog rollback)."""
        self._acc = None
        self.perfscope.abort_step()
        # a rolled-back step's worker launches are discarded with it
        self.executor.drain_worker_tables()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.executor.shutdown()
        if self.arena is not None:
            self.arena.release_all()

    def __enter__(self) -> "RuntimeEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
