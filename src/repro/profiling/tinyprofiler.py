"""TinyProfiler: hierarchical region timers.

Mirrors AMReX's TinyProfiler, which the paper uses to collect the region
decompositions of Figs. 6 and 7: nested named regions accumulate call
counts and wall time, and a report lists inclusive/exclusive totals.

A recorded run binds its :class:`~repro.observability.tracer.Tracer` to
:attr:`TinyProfiler.tracer`; every region then also becomes a span on the
driver track, timed by the profiler's own measurement.  The Summit
performance model writes its charged regions into a tracer directly
(:mod:`repro.perfmodel.trace_export`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple


@dataclass
class RegionStats:
    """Accumulated statistics for one region (identified by its path)."""

    name: str
    calls: int = 0
    inclusive: float = 0.0
    child_time: float = 0.0

    @property
    def exclusive(self) -> float:
        return self.inclusive - self.child_time


class TinyProfiler:
    """Nested region timer."""

    def __init__(self) -> None:
        self._stats: Dict[Tuple[str, ...], RegionStats] = {}
        self._stack: List[Tuple[str, ...]] = []
        #: the run's tracer when it records a trace: each region closed is
        #: written to it as a span (rank 0, driver stream)
        self.tracer = None

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """Time a region with the wall clock (nests under the current region)."""
        path = tuple(self._stack[-1] if self._stack else ()) + (name,)
        self._stack.append(path)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self._accumulate(path, dt)
            if self.tracer is not None:
                self._span(path, t0, dt)

    def enter(self, names: Sequence[str]) -> None:
        """Open the nest ``names`` (outermost first) around work its caller
        times itself, reading no clock; regions opened inside nest under it.
        Close it with :meth:`leave`."""
        for name in names:
            path = (self._stack[-1] if self._stack else ()) + (name,)
            self._stack.append(path)

    def leave(self, n: int, t0: float, seconds: float) -> None:
        """Close the ``n`` innermost regions :meth:`enter` opened, charging
        each the ``seconds`` its caller measured from the clock reading
        ``t0``; their spans are written outermost first."""
        paths = self._stack[-n:]
        del self._stack[-n:]
        for path in reversed(paths):  # innermost first, as nested exits
            self._accumulate(path, seconds)
        if self.tracer is not None:
            for path in paths:
                self._span(path, t0, seconds)

    def _span(self, path: Tuple[str, ...], t0: float, seconds: float) -> None:
        # the profiler's own measurement, not a second clock reading: a
        # pause between the two (GC, a lost time slice) would make the
        # trace and the profiler disagree about the same region
        tracer = self.tracer
        tracer.complete(path[-1], tracer.at_us(t0), seconds * 1e6,
                        cat="region", args={"path": "/".join(path)})

    def _accumulate(self, path: Tuple[str, ...], dt: float) -> None:
        stats = self._stats.setdefault(path, RegionStats(name=path[-1]))
        stats.calls += 1
        stats.inclusive += dt
        if len(path) > 1:
            # every parent is an open region, which captures this time in
            # its own inclusive total when it closes
            parent = self._stats.setdefault(path[:-1],
                                            RegionStats(name=path[-2]))
            parent.child_time += dt

    # -- queries -----------------------------------------------------------
    def total(self, name: str) -> float:
        """Summed inclusive time over every region with this name."""
        return sum(s.inclusive for p, s in self._stats.items() if p[-1] == name)

    def calls(self, name: str) -> int:
        return sum(s.calls for p, s in self._stats.items() if p[-1] == name)

    def top_level(self) -> Dict[str, float]:
        """{name: inclusive time} for depth-1 regions."""
        return {
            p[0]: s.inclusive for p, s in self._stats.items() if len(p) == 1
        }

    def report(self) -> str:
        """An indented text report (TinyProfiler style): children grouped
        under their parents, siblings ordered by inclusive time."""
        lines = ["TinyProfiler report", "-" * 60]

        def children_of(parent: Tuple[str, ...]):
            kids = [p for p in self._stats
                    if len(p) == len(parent) + 1 and p[:len(parent)] == parent]
            return sorted(kids, key=lambda p: -self._stats[p].inclusive)

        def walk(path: Tuple[str, ...]) -> None:
            s = self._stats[path]
            indent = "  " * (len(path) - 1)
            lines.append(
                f"{indent}{s.name:<30s} calls={s.calls:<8d} "
                f"incl={s.inclusive:.6f}s excl={s.exclusive:.6f}s"
            )
            for kid in children_of(path):
                walk(kid)

        for top in children_of(()):
            walk(top)
        return "\n".join(lines)
