"""repro.runtime: the CRoCCo step as a stage program.

The paper's scaling story (Fig. 7) hinges on overlapping communication
with computation: FillBoundary/ParallelCopy are split into ``nowait``
(post) and ``finish`` (complete) halves so interior kernel work can run
in the gap, the way AMReX calls ``FillBoundary_nowait`` / ``_finish`` in
program order.  This package gives the reproduction a runtime with the
same structure:

- :mod:`repro.runtime.rk3graph` — the stage program: every level's posts
  first, then per level finish, interpolation, boundary fill and compute
  batches (AverageDown in the last stage), each task naming the tasks it
  follows by five structural rules.
- :mod:`repro.runtime.scheduler` — :class:`Task`, and the runner that
  runs a stage front to back in the driver with per-task tracer spans
  and the measured comm/compute overlap.
- :mod:`repro.runtime.engine` — the driver-facing facade that builds the
  program once per level storage, runs it per RK stage and accumulates
  per-step schedule reports.

A step has this one execution path; the only process pool is the
service fleet's (:mod:`repro.serve.fleet`), which runs whole runs, not
tasks of a step.
"""

from repro.runtime.engine import RuntimeEngine
from repro.runtime.rk3graph import StageGraph
from repro.runtime.scheduler import ScheduleReport, Scheduler, Task

__all__ = [
    "Task",
    "StageGraph",
    "Scheduler",
    "ScheduleReport",
    "RuntimeEngine",
]
