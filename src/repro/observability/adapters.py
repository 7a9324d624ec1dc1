"""Adapters: producer listeners that turn events into tracer spans.

Spans need the event *sequence*, which the producers do not store
(``TinyProfiler``, ``CommLedger`` and ``GpuDevice`` keep totals), so each
adapter implements one producer's listener callbacks and forwards the
events into the :class:`~repro.observability.tracer.Tracer`.  Metrics need
no adapter: the recorder reads the producers' tables when it samples.
"""

from __future__ import annotations

from typing import Tuple

from repro.observability.tracer import DRIVER_STREAM, GPU_STREAM, Tracer


class ProfilerTraceAdapter:
    """TinyProfiler listener: regions become spans on a driver track.

    Wall regions (``region``, or ``enter`` / ``leave`` around work the
    caller timed) become measured wall spans; charges and
    charged regions (``charge`` / ``charged_region``) become charged spans
    laid out on the track's simulated clock — so the functional driver and
    the Summit performance model export the same span structure.
    """

    def __init__(self, tracer: Tracer, rank: int = 0,
                 stream: int = DRIVER_STREAM) -> None:
        self.tracer = tracer
        self.rank = rank
        self.stream = stream

    def on_enter(self, path: Tuple[str, ...]) -> None:
        self.tracer.begin(path[-1], self.rank, self.stream, cat="region",
                          args={"path": "/".join(path)})

    def on_exit(self, path: Tuple[str, ...], seconds: float) -> None:
        # the profiler's own measurement, not a second clock reading: a
        # pause between the two (GC, a lost time slice) would make the
        # trace and the profiler disagree about the same region
        self.tracer.end(self.rank, self.stream, dur_us=seconds * 1e6)

    def on_span(self, path: Tuple[str, ...], t0: float,
                seconds: float) -> None:
        # a region its caller timed (a scheduled task's): the span is that
        # record, placed on the tracer's timeline by its clock reading
        self.tracer.complete(path[-1], self.tracer.at_us(t0), seconds * 1e6,
                             self.rank, self.stream, cat="region",
                             args={"path": "/".join(path)})

    def on_charge(self, path: Tuple[str, ...], seconds: float,
                  calls: int) -> None:
        self.tracer.charge(path[-1], seconds, self.rank, self.stream,
                           args={"path": "/".join(path), "calls": calls})

    def on_enter_charged(self, path: Tuple[str, ...]) -> None:
        self.tracer.begin_charged(path[-1], self.rank, self.stream,
                                  args={"path": "/".join(path)})

    def on_exit_charged(self, path: Tuple[str, ...]) -> None:
        self.tracer.end_charged(self.rank, self.stream)


class KernelSpanAdapter:
    """GpuDevice listener: each launch becomes a wall span on the rank's
    GPU-stream track."""

    def __init__(self, tracer: Tracer, rank: int = 0,
                 stream: int = GPU_STREAM) -> None:
        self.tracer = tracer
        self.rank = rank
        self.stream = stream

    def on_launch(self, device, rec, wall_seconds: float) -> None:
        dur = wall_seconds * 1e6
        self.tracer.complete(rec.name, self.tracer.now_us() - dur, dur,
                             self.rank, self.stream, cat="kernel",
                             args={"points": rec.npoints,
                                   "class": rec.kernel_class})
