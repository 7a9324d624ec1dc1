"""Task-lifecycle spans and the PerfScope coordinator.

A :class:`TaskSpan` records one task's lifecycle timestamps — started,
finished, merged — in seconds relative to the start of the
owning stage's schedule.  Every task runs in the driver, so there is one
clock and one lane.

The :class:`PerfScope` object is the coordinator: the scheduler opens
one :class:`StageTrace` per executed graph and feeds it lifecycle
events; at end of step the engine asks the scope to finalize the stage
traces into a :class:`~repro.observability.perfscope.attribution.StepPerf`.
PerfScope also meters its *own* bookkeeping cost (``overhead_s``) so
the attribution overhead is itself measured and reported.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

_BOX_RE = re.compile(r"\(L(\d+),b(\d+)\)(?:x(\d+))?")


def kernel_class(name: str) -> str:
    """The kernel class of a task name: its prefix before ``(``.

    ``Box(L1,b3)x8`` -> ``Box``, ``FB_nowait(L0)`` -> ``FB_nowait``,
    ``AverageDown(L1->L0)`` -> ``AverageDown``.
    """
    return name.split("(", 1)[0]


def box_of(name: str) -> Optional[Tuple[int, int, int]]:
    """The (level, first box, members) a task touches — ``(1, 3, 8)`` for
    the batch node ``Box(L1,b3)x8``, one member for a per-box task
    (``Interp(L2,b11)``) — or None."""
    m = _BOX_RE.search(name)
    if m is None:
        return None
    return int(m.group(1)), int(m.group(2)), int(m.group(3) or 1)


@dataclass
class TaskSpan:
    """One task's lifecycle (times relative to the stage's start)."""

    sid: int
    name: str
    kind: str
    kclass: str
    deps: Tuple[int, ...] = ()
    t_started: Optional[float] = None
    t_finished: Optional[float] = None
    t_merged: Optional[float] = None

    @property
    def execute_s(self) -> float:
        if self.t_started is None or self.t_finished is None:
            return 0.0
        return max(0.0, self.t_finished - self.t_started)

    @property
    def merge_s(self) -> float:
        """Driver time spent folding the completion into the step
        (report accounting, dependent release)."""
        if self.t_finished is None or self.t_merged is None:
            return 0.0
        return max(0.0, self.t_merged - self.t_finished)


class StageTrace:
    """Lifecycle spans of one executed stage graph (its first ``ntasks``)."""

    def __init__(self, graph, sid_base: int = 0, ntasks: Optional[int] = None) -> None:
        self.makespan_s = 0.0
        self.spans: List[TaskSpan] = [
            TaskSpan(sid=sid_base + t.tid, name=t.name, kind=t.kind,
                     kclass=kernel_class(t.name),
                     deps=tuple(sid_base + d for d in t.deps))
            for t in graph.tasks[:ntasks]
        ]
        self._sid_base = sid_base

    # -- event hooks (tid = task id within this stage's graph) -------------
    def sid(self, tid: int) -> int:
        return self._sid_base + tid

    def ran(self, tid: int, t0: float, dur: float) -> None:
        s = self.spans[tid]
        s.t_started = t0
        s.t_finished = t0 + dur

    def merged(self, tid: int, t: float) -> None:
        self.spans[tid].t_merged = t

    def close(self, makespan_s: float) -> None:
        self.makespan_s = makespan_s


class PerfScope:
    """Collector: stage traces -> per-step attribution."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: measured cost of perfscope's own bookkeeping (seconds)
        self.overhead_s = 0.0
        self._stage_traces: List[StageTrace] = []
        self._next_sid = 0
        self.total = None  # type: Optional[object]  # StepPerf
        self.last_step = None  # type: Optional[object]  # StepPerf

    # -- step/stage lifecycle ---------------------------------------------
    def begin_step(self) -> None:
        self._stage_traces = []

    def begin_stage(self, graph, ntasks: Optional[int] = None) -> Optional[StageTrace]:
        if not self.enabled:
            return None
        t0 = time.perf_counter()
        trace = StageTrace(graph, sid_base=self._next_sid, ntasks=ntasks)
        self._next_sid += len(trace.spans)
        self._stage_traces.append(trace)
        self.overhead_s += time.perf_counter() - t0
        return trace

    def abort_step(self) -> None:
        """Drop the partially collected step (watchdog rollback)."""
        self._stage_traces = []

    def finalize_step(self):
        """Fold the step's stage traces into a StepPerf; returns it."""
        from repro.observability.perfscope.attribution import StepPerf

        if not self.enabled:
            return None
        t0 = time.perf_counter()
        step = StepPerf.from_traces(self._stage_traces)
        self._stage_traces = []
        if self.total is None:
            self.total = StepPerf()
        self.total.merge(step)
        self.last_step = step
        self.overhead_s += time.perf_counter() - t0
        self.total.overhead_s = self.overhead_s
        step.overhead_s = self.overhead_s
        return step
