"""Unified observability: one event model over the three accounting silos.

The paper's evaluation is an observability exercise — TinyProfiler region
decompositions (Figs. 6-7), kernel-launch accounting for the roofline
(Figs. 3-4), and message-volume breakdowns of FillPatch.  This package
unifies the collectors behind one event model:

- :class:`~repro.observability.tracer.Tracer` — spans carrying wall *or*
  charged (simulated-Summit) time on rank/stream tracks, exported as
  Chrome trace-event JSON (loadable in Perfetto / chrome://tracing); the
  run's one trace sink, which the profiler, the scheduler and the devices
  write their spans into directly;
- :class:`~repro.observability.metrics.MetricsRegistry` — named values
  sampled once per timestep into a JSONL time series (read from the
  producers' own tables at sample time);
- :class:`~repro.observability.recorder.RunRecorder` — binds a run's
  producers to the tracer, samples the registry and writes the artifacts
  (``trace.json``, ``metrics.jsonl``);
- :mod:`~repro.observability.report` — the run-report CLI
  (``python -m repro.report <run_dir>``).
"""

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
    "load_chrome_trace",
    "validate_chrome_trace",
]
