"""repro.runtime: task-graph execution of the CRoCCo step.

The paper's scaling story (Fig. 7) hinges on overlapping communication
with computation: FillBoundary/ParallelCopy are split into ``nowait``
(post) and ``finish`` (complete) halves so interior kernel work can run
in the gap, and AMReX itself schedules box work through asynchronous
iterators and launch queues.  This package gives the reproduction a
runtime with the same structure:

- :mod:`repro.runtime.graph` — tasks with explicit read/write sets keyed
  on (MultiFab id, box id, component range); dependencies (RAW/WAR/WAW)
  are inferred automatically.
- :mod:`repro.runtime.scheduler` — ready-queue order (recorded once per
  graph) run in the driver with comm-posting priority, per-task tracer
  spans, and the measured comm/compute overlap per step.
- :mod:`repro.runtime.engine` — the driver-facing facade that replays
  the stage graph (:mod:`repro.runtime.rk3graph`, one per regrid) and
  accumulates per-step schedule reports.

A step has this one execution path.  :mod:`repro.runtime.executors` is
the service fleet's process pool (whole runs, not tasks of a step) and
is not imported from here.
"""

from repro.runtime.engine import RuntimeEngine
from repro.runtime.graph import DataKey, Task, TaskGraph
from repro.runtime.scheduler import ScheduleReport, Scheduler

__all__ = [
    "DataKey",
    "Task",
    "TaskGraph",
    "Scheduler",
    "ScheduleReport",
    "RuntimeEngine",
]
