"""Task-lifecycle spans and the PerfScope coordinator.

A :class:`TaskSpan` records one task's lifecycle timestamps, all in
seconds relative to the owning stage's ``t0_abs`` (a ``perf_counter``
reading).  Worker processes are forked from the driver and
``perf_counter`` reads ``CLOCK_MONOTONIC`` on POSIX, so timestamps
measured inside a worker live on the same clock as the driver's and
reconcile by simple subtraction; any negative interval that survives
(clock trouble, interrupted writes) is clamped and counted in
``reconcile_errors`` rather than poisoning the attribution.

The :class:`PerfScope` object is the driver-side coordinator: the
scheduler opens one :class:`StageTrace` per executed graph and feeds it
lifecycle events; at end of step the engine asks the scope to finalize
the stage traces into a :class:`~repro.observability.perfscope.attribution.StepPerf`.
PerfScope also meters its *own* bookkeeping cost (``overhead_s``) so
the attribution overhead is itself measured and reported.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: recognised lifecycle phases, in order
PHASES = ("created", "enqueued", "pickled", "dispatched", "started",
          "finished", "collected", "merged")

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
    """One task's reconciled lifecycle (times relative to stage t0)."""

    sid: int
    name: str
    kind: str
    kclass: str
    deps: Tuple[int, ...] = ()
    lane: int = 0                 # 0 = driver, 1..N = pool workers
    offloaded: bool = False
    t_enqueued: Optional[float] = None
    t_dispatched: Optional[float] = None
    t_started: Optional[float] = None
    t_finished: Optional[float] = None
    t_collected: Optional[float] = None
    t_merged: Optional[float] = None
    serialize_s: float = 0.0
    deserialize_s: float = 0.0
    pickle_bytes: int = 0

    @property
    def execute_s(self) -> float:
        if self.t_started is None or self.t_finished is None:
            return 0.0
        return max(0.0, self.t_finished - self.t_started)

    @property
    def queue_wait_s(self) -> float:
        """Dispatch-to-start gap (offloaded tasks only)."""
        if not self.offloaded or self.t_dispatched is None \
                or self.t_started is None:
            return 0.0
        return max(0.0, self.t_started - self.t_dispatched)

    @property
    def result_s(self) -> float:
        """Worker-finish to driver-collection latency."""
        if not self.offloaded or self.t_finished is None \
                or self.t_collected is None:
            return 0.0
        return max(0.0, self.t_collected - self.t_finished)

    @property
    def merge_s(self) -> float:
        """Driver time spent folding the completion into the step."""
        if self.t_collected is None or self.t_merged is None:
            return 0.0
        return max(0.0, self.t_merged - self.t_collected)


class StageTrace:
    """Lifecycle spans of one executed stage graph."""

    def __init__(self, graph, nlanes: int, sid_base: int = 0) -> None:
        self.t0_abs = time.perf_counter()
        self.nlanes = max(1, int(nlanes))
        self.makespan_s = 0.0
        self.reconcile_errors = 0
        self.spans: List[TaskSpan] = [
            TaskSpan(sid=sid_base + t.tid, name=t.name, kind=t.kind,
                     kclass=kernel_class(t.name),
                     deps=tuple(sid_base + d for d in t.deps))
            for t in graph.tasks
        ]
        self._sid_base = sid_base

    # -- event hooks (tid = task id within this stage's graph) -------------
    def sid(self, tid: int) -> int:
        return self._sid_base + tid

    def rel(self, t_abs: float) -> float:
        return t_abs - self.t0_abs

    def enqueued(self, tid: int, t: float) -> None:
        self.spans[tid].t_enqueued = t

    def ran_inline(self, tid: int, t0: float, dur: float) -> None:
        s = self.spans[tid]
        s.lane = 0
        s.t_started = t0
        s.t_finished = t0 + dur
        # an inline result is "collected" the moment it finishes; the
        # merge timestamp then isolates the dependent-release cost
        s.t_collected = s.t_finished

    def offloaded_done(self, tid: int, lane: int, dur: float,
                       lifecycle: Dict[str, float],
                       t_collected: float) -> None:
        """Reconcile a worker-run task's lifecycle in the driver.

        ``lifecycle`` carries absolute ``perf_counter`` timestamps from
        the executor/worker plus serialize metering; the echoed span id
        (if present) must match — a mismatch is counted, not trusted.
        """
        s = self.spans[tid]
        echoed = lifecycle.get("sid")
        if echoed is not None and int(echoed) != s.sid:
            self.reconcile_errors += 1
        s.lane = max(0, int(lane))
        s.offloaded = lane > 0
        s.serialize_s = float(lifecycle.get("serialize_s", 0.0))
        s.deserialize_s = float(lifecycle.get("deserialize_s", 0.0))
        s.pickle_bytes = int(lifecycle.get("pickle_bytes", 0))
        t_disp = lifecycle.get("t_dispatched")
        t_start = lifecycle.get("t_started")
        t_finish = lifecycle.get("t_finished")
        s.t_dispatched = self.rel(t_disp) if t_disp is not None else None
        if t_start is not None and t_finish is not None:
            s.t_started = self.rel(t_start)
            s.t_finished = self.rel(t_finish)
        else:  # executor gave only a duration; anchor at collection
            s.t_started = t_collected - dur
            s.t_finished = t_collected
        if s.t_dispatched is not None and s.t_started < s.t_dispatched:
            # reconciliation slack: never let clock jitter create a
            # negative queue wait
            self.reconcile_errors += 1
            s.t_started = s.t_dispatched
            s.t_finished = max(s.t_finished, s.t_started)
        s.t_collected = t_collected

    def merged(self, tid: int, t: float) -> None:
        self.spans[tid].t_merged = t

    def close(self, makespan_s: float) -> None:
        self.makespan_s = makespan_s


class PerfScope:
    """Driver-side collector: stage traces -> per-step attribution."""

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

    def begin_stage(self, graph, nlanes: int) -> Optional[StageTrace]:
        if not self.enabled:
            return None
        t0 = time.perf_counter()
        trace = StageTrace(graph, nlanes, sid_base=self._next_sid)
        self._next_sid += len(graph.tasks)
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
