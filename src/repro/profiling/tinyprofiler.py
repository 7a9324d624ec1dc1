"""TinyProfiler: hierarchical region timers.

Mirrors AMReX's TinyProfiler, which the paper uses to collect the region
decompositions of Figs. 6 and 7: nested named regions accumulate call
counts and (wall or externally supplied) time, and a report lists
inclusive/exclusive totals.

Besides wall-clock timing, regions accept *charged* time so the Summit
performance model can attribute simulated seconds to the same region
names (FillPatch, Advance, Regrid, ComputeDt, AverageDown, and the
FillPatch internals ParallelCopy/FillBoundary).
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
    """Nested region timer with charge (simulated-time) support.

    Listeners (see :mod:`repro.observability.adapters`) receive every
    region enter/exit and charge as it happens, so traces can be exported
    without changing how regions are declared.
    """

    def __init__(self) -> None:
        self._stats: Dict[Tuple[str, ...], RegionStats] = {}
        self._stack: List[Tuple[str, ...]] = []
        self._wall_open: set = set()  # paths open by region() or enter()
        self._listeners: List[object] = []

    # -- listeners ---------------------------------------------------------
    def add_listener(self, listener: object) -> None:
        """Attach an observer with on_enter/on_exit/on_span/on_charge/
        on_enter_charged/on_exit_charged callbacks (all optional)."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def _notify(self, event: str, *args) -> None:
        for listener in self._listeners:
            cb = getattr(listener, event, None)
            if cb is not None:
                cb(*args)

    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """Time a region with the wall clock (nests under the current region)."""
        path = tuple(self._stack[-1] if self._stack else ()) + (name,)
        self._stack.append(path)
        self._wall_open.add(path)
        self._notify("on_enter", path)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self._wall_open.discard(path)
            self._accumulate(path, dt)
            self._notify("on_exit", path, dt)

    def enter(self, names: Sequence[str]) -> None:
        """Open the nest ``names`` (outermost first) around work its caller
        times itself, reading no clock; regions opened inside nest under it.
        Close it with :meth:`leave`."""
        for name in names:
            path = (self._stack[-1] if self._stack else ()) + (name,)
            self._stack.append(path)
            self._wall_open.add(path)

    def leave(self, n: int, t0: float, seconds: float) -> None:
        """Close the ``n`` innermost regions :meth:`enter` opened, charging
        each the ``seconds`` its caller measured from the clock reading
        ``t0``; listeners get ``on_span(path, t0, seconds)``, outermost
        first."""
        paths = self._stack[-n:]
        del self._stack[-n:]
        for path in reversed(paths):  # innermost first, as nested exits
            self._wall_open.discard(path)
            self._accumulate(path, seconds)
        if self._listeners:
            for path in paths:
                self._notify("on_span", path, t0, seconds)

    def charge(self, name: str, seconds: float, calls: int = 1) -> None:
        """Attribute simulated time to a region under the current nesting."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        path = tuple(self._stack[-1] if self._stack else ()) + (name,)
        self._accumulate(path, seconds, calls)
        self._notify("on_charge", path, seconds, calls)

    @contextmanager
    def charged_region(self, name: str) -> Iterator[None]:
        """A zero-wall-time nesting context for structuring charges."""
        path = tuple(self._stack[-1] if self._stack else ()) + (name,)
        self._stack.append(path)
        self._notify("on_enter_charged", path)
        try:
            yield
        finally:
            self._stack.pop()
            if path not in self._stats:
                self._stats[path] = RegionStats(name=name)
            self._notify("on_exit_charged", path)

    def _accumulate(self, path: Tuple[str, ...], dt: float, calls: int = 1) -> None:
        stats = self._stats.setdefault(path, RegionStats(name=path[-1]))
        stats.calls += calls
        stats.inclusive += dt
        while len(path) > 1:
            parent = self._stats.setdefault(path[:-1], RegionStats(name=path[-2]))
            parent.child_time += dt
            # a parent timed by region() or enter() captures this time in
            # its own charge (open now, or in a previous pass); a never-entered
            # parent — a charged_region nest — absorbs it as inclusive,
            # and the roll-up continues to *its* parent in turn
            if parent.calls > 0 or path[:-1] in self._wall_open:
                break
            parent.inclusive += dt
            path = path[:-1]

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
