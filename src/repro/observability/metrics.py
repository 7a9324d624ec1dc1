"""MetricsRegistry: gauges and histograms sampled per timestep.

The driver (or the simulated-Summit scaling exporter) updates instruments
as it runs and calls :meth:`MetricsRegistry.sample` once per timestep; the
accumulated records serialize to JSON Lines, one record per step::

    {"step": 3, "time": 0.0125, "metrics": {"dt": 4.1e-3, ...}}

Gauges hold the last set value (cumulative quantities are set from the
producer's own running total); histograms flatten to
``name.count/.sum/.min/.max/.mean`` in each sample.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Union


class Gauge:
    """A point-in-time value (last write wins)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None

    def set(self, value: Union[int, float]) -> None:
        self.value = float(value)


class Histogram:
    """Streaming summary statistics of observed values."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Union[int, float]) -> None:
        v = float(value)
        self.count += 1
        self.total += v
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def flatten(self) -> Dict[str, float]:
        return {
            f"{self.name}.count": float(self.count),
            f"{self.name}.sum": self.total,
            f"{self.name}.min": self.min if self.min is not None else 0.0,
            f"{self.name}.max": self.max if self.max is not None else 0.0,
            f"{self.name}.mean": self.mean,
        }


class MetricsRegistry:
    """Named instruments plus the per-step sample log."""

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        self.records: List[dict] = []
        self._stream = None
        self._stream_path: Optional[str] = None

    def _get(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    # -- sampling ----------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Current value of every instrument, flattened to scalars."""
        out: Dict[str, float] = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if isinstance(inst, Histogram):
                out.update(inst.flatten())
            elif inst.value is not None:
                out[name] = inst.value
        return out

    def sample(self, step: int, time: float,
               extra: Optional[Dict[str, float]] = None) -> dict:
        """Record one per-timestep sample of every instrument."""
        metrics = self.snapshot()
        if extra:
            metrics.update({k: float(v) for k, v in extra.items()})
        rec = {"step": int(step), "time": float(time), "metrics": metrics}
        self.records.append(rec)
        if self._stream is not None:
            self._stream.write(json.dumps(rec) + "\n")
            self._stream.flush()
        return rec

    # -- serialization -----------------------------------------------------
    def stream_to(self, path) -> str:
        """Start appending each sample to ``path`` as it is taken.

        Streaming mode is what lets a live consumer (the serve layer's
        ``GET /runs/<id>/metrics``) watch a run's progress: every
        :meth:`sample` writes one complete line and flushes, so a reader
        sees at most one truncated record at the tail — which the
        tolerant reader skips.  :meth:`write_jsonl` on the same path then
        becomes a no-op close (the records are already on disk).
        """
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        self.close_stream()
        self._stream = p.open("w")
        self._stream_path = str(p)
        for rec in self.records:  # records sampled before streaming began
            self._stream.write(json.dumps(rec) + "\n")
        self._stream.flush()
        return str(p)

    def close_stream(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def write_jsonl(self, path) -> str:
        p = Path(path)
        if self._stream is not None and str(p) == self._stream_path:
            # streamed all along: every record is already in the file
            self.close_stream()
            return str(p)
        p.parent.mkdir(parents=True, exist_ok=True)
        with p.open("w") as f:
            for rec in self.records:
                f.write(json.dumps(rec) + "\n")
        return str(p)

    @staticmethod
    def read_jsonl(path, tolerant: bool = False) -> List[dict]:
        """Load a metrics JSONL file; validates the record schema.

        With ``tolerant=True`` (used by the report CLI) malformed lines —
        typically a record truncated mid-write when a run died — and
        records missing required sections are skipped with a warning on
        stderr instead of aborting the whole load; every intact record
        still renders.
        """
        records: List[dict] = []
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                if tolerant:
                    print(f"warning: {path}:{lineno}: skipping malformed "
                          f"record ({exc})", file=sys.stderr)
                    continue
                raise ValueError(
                    f"{path}:{lineno}: malformed JSON record: {exc}"
                ) from exc
            missing = [f for f in ("step", "time", "metrics") if f not in rec]
            if missing:
                if tolerant:
                    print(f"warning: {path}:{lineno}: skipping record "
                          f"missing {missing[0]!r}", file=sys.stderr)
                    continue
                raise ValueError(
                    f"{path}:{lineno}: record missing {missing[0]!r}"
                )
            records.append(rec)
        return records
