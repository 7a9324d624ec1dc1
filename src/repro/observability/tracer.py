"""Tracer: nested spans on rank/stream tracks, Chrome trace-event export.

One :class:`Tracer` records both kinds of time this reproduction deals in:

- **wall** spans, timed by their producers while functional code runs
  (a profiler region, a scheduled task, a kernel launch) and placed on the
  timeline by the producer's clock reading (``at_us``, ``complete``);
- **charged** spans, laid out on a per-track simulated clock so the Summit
  performance model can emit the *same* span structure with modeled
  seconds (``charge`` / ``begin_charged`` / ``end_charged``).

Every span is attributed to a ``rank`` (Chrome ``pid``) and ``stream``
(Chrome ``tid``), so per-rank GPU streams and the driver's region nest
render as separate tracks.  Export follows the Chrome trace-event JSON
object format — the file loads directly in Perfetto or chrome://tracing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: stream ids used by convention: 0 = the driver's region nest,
#: 1 = the rank's (simulated) GPU stream
DRIVER_STREAM = 0
GPU_STREAM = 1

_Track = Tuple[int, int]  # (rank/pid, stream/tid)


class Tracer:
    """Collects trace events: wall spans at their producers' clock
    readings, charged spans on a simulated clock per track."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._t0 = clock()
        self._events: List[dict] = []
        # simulated clock cursor per track, microseconds
        self._cursor: Dict[_Track, float] = {}
        # open charged spans per track: (name, start_us, cat, args)
        self._open_charged: Dict[_Track, List[tuple]] = {}
        self._process_names: Dict[int, str] = {}
        self._thread_names: Dict[_Track, str] = {}

    # -- clocks ------------------------------------------------------------
    def now_us(self) -> float:
        """Wall microseconds since the tracer was created."""
        return self.at_us(self._clock())

    def at_us(self, t: float) -> float:
        """Wall microseconds since the tracer was created at the reading
        ``t`` of its clock (``time.perf_counter`` unless given)."""
        return (t - self._t0) * 1e6

    # -- wall spans --------------------------------------------------------
    def complete(self, name: str, ts_us: float, dur_us: float,
                 rank: int = 0, stream: int = DRIVER_STREAM,
                 cat: str = "region", args: Optional[dict] = None) -> None:
        """Emit one complete ("X") event with explicit timestamps."""
        ev = {"name": name, "ph": "X", "ts": ts_us, "dur": max(0.0, dur_us),
              "pid": rank, "tid": stream, "cat": cat}
        if args:
            ev["args"] = dict(args)
        self._events.append(ev)

    # -- charged (simulated) spans ----------------------------------------
    def charge(self, name: str, seconds: float, rank: int = 0,
               stream: int = DRIVER_STREAM, cat: str = "charged",
               args: Optional[dict] = None) -> None:
        """Emit a leaf span of ``seconds`` at the track's simulated cursor."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        key = (rank, stream)
        t0 = self._cursor.get(key, 0.0)
        dur = seconds * 1e6
        self.complete(name, t0, dur, rank, stream, cat, args)
        self._cursor[key] = t0 + dur

    def begin_charged(self, name: str, rank: int = 0,
                      stream: int = DRIVER_STREAM, cat: str = "charged",
                      args: Optional[dict] = None) -> None:
        key = (rank, stream)
        self._open_charged.setdefault(key, []).append(
            (name, self._cursor.get(key, 0.0), cat, args)
        )

    def end_charged(self, rank: int = 0, stream: int = DRIVER_STREAM) -> None:
        key = (rank, stream)
        stack = self._open_charged.get(key)
        if not stack:
            raise RuntimeError(f"no open charged span on track {key}")
        name, t0, cat, args = stack.pop()
        self.complete(name, t0, self._cursor.get(key, 0.0) - t0,
                      rank, stream, cat, args)

    # -- point events ------------------------------------------------------
    def instant(self, name: str, rank: int = 0, stream: int = DRIVER_STREAM,
                cat: str = "mark", args: Optional[dict] = None,
                ts_us: Optional[float] = None) -> None:
        ev = {"name": name, "ph": "i", "s": "t",
              "ts": self.now_us() if ts_us is None else ts_us,
              "pid": rank, "tid": stream, "cat": cat}
        if args:
            ev["args"] = dict(args)
        self._events.append(ev)

    def counter(self, name: str, values: Dict[str, float], rank: int = 0,
                ts_us: Optional[float] = None) -> None:
        """Emit a Chrome counter ("C") sample."""
        self._events.append({
            "name": name, "ph": "C",
            "ts": self.now_us() if ts_us is None else ts_us,
            "pid": rank, "tid": 0, "cat": "metric",
            "args": {k: float(v) for k, v in values.items()},
        })

    # -- track naming ------------------------------------------------------
    def set_process_name(self, rank: int, name: str) -> None:
        self._process_names[rank] = name

    def set_thread_name(self, rank: int, stream: int, name: str) -> None:
        self._thread_names[(rank, stream)] = name

    # -- export ------------------------------------------------------------
    def _metadata_events(self) -> List[dict]:
        out = []
        ranks = {ev["pid"] for ev in self._events}
        for r in sorted(ranks | set(self._process_names)):
            out.append({"name": "process_name", "ph": "M", "ts": 0.0,
                        "pid": r, "tid": 0,
                        "args": {"name": self._process_names.get(r, f"rank {r}")}})
        tracks = {(ev["pid"], ev["tid"]) for ev in self._events}
        for (r, s) in sorted(tracks | set(self._thread_names)):
            default = "driver" if s == DRIVER_STREAM else f"stream {s}"
            out.append({"name": "thread_name", "ph": "M", "ts": 0.0,
                        "pid": r, "tid": s,
                        "args": {"name": self._thread_names.get((r, s), default)}})
        return out

    def to_chrome(self, other_data: Optional[dict] = None) -> dict:
        """The Chrome trace-event JSON object (metadata + events)."""
        doc = {
            "traceEvents": self._metadata_events() + self._events,
            "displayTimeUnit": "ms",
        }
        if other_data:
            doc["otherData"] = other_data
        return doc

    def write(self, path, other_data: Optional[dict] = None) -> str:
        """Serialize the trace to ``path``; returns the path written."""
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(json.dumps(self.to_chrome(other_data)))
        return str(p)


# -- schema helpers ---------------------------------------------------------

#: fields every trace event must carry (Chrome trace-event format)
REQUIRED_EVENT_FIELDS = ("name", "ph", "ts", "pid", "tid")


def validate_chrome_trace(doc: dict) -> List[str]:
    """Validate a trace document; returns a list of problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["document is not an object with a 'traceEvents' array"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' is not an array"]
    for i, ev in enumerate(events):
        for f in REQUIRED_EVENT_FIELDS:
            if f not in ev:
                problems.append(f"event {i}: missing field {f!r}")
        ph = ev.get("ph")
        if ph == "X":
            if "dur" not in ev:
                problems.append(f"event {i}: 'X' event without 'dur'")
            elif ev["dur"] < 0:
                problems.append(f"event {i}: negative duration")
        if "ts" in ev and ev["ts"] < 0:
            problems.append(f"event {i}: negative timestamp")
    return problems


def load_chrome_trace(path) -> Tuple[List[dict], dict]:
    """Read a trace file back; returns (events, otherData)."""
    doc = json.loads(Path(path).read_text())
    problems = validate_chrome_trace(doc)
    if problems:
        raise ValueError(f"{path}: invalid Chrome trace: {problems[:3]}")
    return doc["traceEvents"], doc.get("otherData", {})
