"""perfscope: task-lifecycle tracing and critical-path attribution.

The runtime (PR 2) can *run* a stage DAG on pool workers, but nothing
says where a slow parallel run loses its time — queue wait, pickling,
SharedMemory churn, worker idle gaps, or the DAG's own critical path.
This package instruments every task's full lifecycle across process
boundaries::

    created -> enqueued -> pickled [bytes + time] -> dispatched
            -> started-on-worker -> finished -> result-transferred
            -> merged

Span ids travel with the task payload into the worker and are
reconciled in the driver; worker timestamps share the driver's
``CLOCK_MONOTONIC`` epoch (fork, POSIX), so one timeline covers all
processes.  From the reconciled spans perfscope computes, per step:

- the **critical path** of each executed stage DAG (longest dependency
  chain weighted by measured task time) and the **realized
  parallelism** (total busy time / critical-path time);
- an **overhead breakdown** — serialize / queue-wait / execute /
  result / merge / idle — per kernel class, tiled against the run's
  worker-second capacity (lanes x makespan) so the attribution is a
  checkable identity, not a tautology;
- **per-lane idle-gap timelines** (driver = lane 0, pool workers
  1..N) and a per-batch cost histogram feeding measured-cost load
  balancing (ROADMAP item 4).

Results surface as ``perf.*`` recorder gauges, the run report's
"bottleneck" section, lifecycle sub-slices on the Chrome-trace worker
tracks, and ``benchmarks/bench_perfscope.py`` rows in
BENCH_results.json, gated by ``tools/bench_gate.py``.
"""

from repro.observability.perfscope.attribution import StepPerf, attribute_stage
from repro.observability.perfscope.critpath import critical_path
from repro.observability.perfscope.lifecycle import (
    PerfScope,
    StageTrace,
    TaskSpan,
    kernel_class,
)

__all__ = [
    "PerfScope",
    "StageTrace",
    "TaskSpan",
    "StepPerf",
    "attribute_stage",
    "critical_path",
    "kernel_class",
]
