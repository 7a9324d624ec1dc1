"""perfscope: task-lifecycle tracing and critical-path attribution.

Where does a step's time go inside the task runtime — task bodies, the
scheduler's own bookkeeping, or gaps between tasks — and how long is the
DAG's own critical path?  This package instruments every task's
lifecycle::

    created -> started -> finished -> merged

Every task runs in the driver, so one clock and one lane cover a stage.
From the spans perfscope computes, per step:

- the **critical path** of each executed stage DAG (longest dependency
  chain weighted by measured task time) and the concurrency the DAG
  offers (total busy time / critical-path time);
- an **overhead breakdown** — execute / merge / idle — per kernel class,
  tiled against the makespan so the attribution is a checkable identity,
  not a tautology;
- a per-batch cost table feeding measured-cost load balancing.

Results surface as ``perf.*`` recorder gauges and the run report's
"bottleneck" section; closure and self-cost are asserted in
``tests/observability/test_perfscope.py``.
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
    "StepPerf",
    "TaskSpan",
    "attribute_stage",
    "critical_path",
    "kernel_class",
]
