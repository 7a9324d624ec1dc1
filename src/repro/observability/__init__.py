"""Unified observability: one event model over the three accounting silos.

The paper's evaluation is an observability exercise — TinyProfiler region
decompositions (Figs. 6-7), kernel-launch accounting for the roofline
(Figs. 3-4), and message-volume breakdowns of FillPatch.  This package
unifies the collectors behind one event model:

- :class:`~repro.observability.tracer.Tracer` — nested spans carrying wall
  *or* charged (simulated-Summit) time on rank/stream tracks, exported as
  Chrome trace-event JSON (loadable in Perfetto / chrome://tracing);
- :class:`~repro.observability.metrics.MetricsRegistry` — gauges and
  histograms sampled once per timestep into a JSONL time series;
- :mod:`~repro.observability.adapters` — listeners that turn profiler
  regions and kernel launches into tracer spans (metrics are read from the
  producers' own tables at sample time, with no listener);
- :class:`~repro.observability.recorder.RunRecorder` — wires a run to the
  tracer/registry and writes the artifacts (``trace.json``,
  ``metrics.jsonl``);
- :mod:`~repro.observability.report` — the run-report CLI
  (``python -m repro.report <run_dir>``).
"""

from repro.observability.adapters import (
    KernelSpanAdapter,
    ProfilerTraceAdapter,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.recorder import RunRecorder
from repro.observability.tracer import (
    Tracer,
    load_chrome_trace,
    validate_chrome_trace,
)

__all__ = [
    "Tracer",
    "MetricsRegistry",
    "RunRecorder",
    "ProfilerTraceAdapter",
    "KernelSpanAdapter",
    "load_chrome_trace",
    "validate_chrome_trace",
]
