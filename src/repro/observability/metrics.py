"""MetricsRegistry: named values sampled per timestep.

The driver (or the simulated-Summit scaling exporter) sets named values
as it runs and calls :meth:`MetricsRegistry.sample` once per timestep; the
accumulated records serialize to JSON Lines, one record per step::

    {"step": 3, "time": 0.0125, "metrics": {"dt": 4.1e-3, ...}}

A value holds the last one set (cumulative quantities are set from the
producer's own running total); a series is the same name across records.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Union


class MetricsRegistry:
    """Named values plus the per-step sample log."""

    def __init__(self) -> None:
        self._values: Dict[str, float] = {}
        self.records: List[dict] = []
        self._stream = None
        self._stream_path: Optional[str] = None

    def set(self, name: str, value: Union[int, float]) -> None:
        """Set ``name`` to ``value`` (last write wins)."""
        self._values[name] = float(value)

    # -- sampling ----------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Current value of every name, sorted by name."""
        return {name: self._values[name] for name in sorted(self._values)}

    def sample(self, step: int, time: float) -> dict:
        """Record one per-timestep sample of every value."""
        rec = {"step": int(step), "time": float(time),
               "metrics": self.snapshot()}
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
