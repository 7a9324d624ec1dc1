"""Ready-queue scheduler with comm-posting priority and overlap metering.

Tasks become ready when their dependencies complete; among ready tasks
the scheduler prefers, in order: ``comm-post`` (get halo exchanges in
flight as early as possible), then boundary/interp/compute work, and
``comm-wait`` last (finish a posted exchange only when nothing useful
can run in the gap).  Ties break on submission order, so a run is fully
deterministic and — because only mutually independent tasks are ever
reordered — bit-identical to the eager driver.  Because it is
deterministic, the order is worked out once per graph (and prefix) and
recorded, and every stage that reuses the graph replays it.  Every task
runs in the driver process: there is one execution path (DESIGN.md, "One
way to run a step").

While running, the scheduler measures the quantity the paper's Fig. 7
models: for every ``comm-post``/``comm-wait`` channel pair it records
the *in-flight window* (post completion to finish start) and sums the
compute time executed inside such windows — the **measured overlap** a
real schedule achieves, directly comparable to the modeled
``fillpatch_split`` nowait/finish decomposition.

Every executed task is exported as a tracer span on the runtime track.
When a :class:`~repro.observability.perfscope.PerfScope` is attached,
the scheduler additionally records each task's lifecycle (started,
finished, merged) into a per-stage trace.
"""

from __future__ import annotations

import heapq
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.runtime.graph import TaskGraph

#: scheduling priority by task kind (lower runs first among ready tasks)
KIND_PRIORITY = {
    "comm-post": 0,
    "bc": 1,
    "interp": 1,
    "compute": 2,
    "comm": 2,
    "comm-wait": 3,
}

#: tracer stream id of the runtime track
RUNTIME_STREAM = 8


@dataclass
class ScheduleReport:
    """Measured statistics of one (or several merged) graph executions."""

    tasks_by_kind: Dict[str, int] = field(default_factory=dict)
    posted_comm_s: float = 0.0    # time inside comm-post tasks (packing)
    finish_comm_s: float = 0.0    # time inside comm-wait tasks (unpacking)
    compute_s: float = 0.0        # time inside compute tasks
    overlap_s: float = 0.0        # compute time under an open comm window
    makespan_s: float = 0.0
    busy_s: float = 0.0           # summed task time
    graphs: int = 0

    @property
    def overlap_frac(self) -> float:
        """Fraction of compute time that ran while comm was in flight."""
        return self.overlap_s / self.compute_s if self.compute_s > 0 else 0.0

    @property
    def idle_frac(self) -> float:
        """Fraction of the makespan spent outside any task."""
        if self.makespan_s <= 0:
            return 0.0
        return max(0.0, 1.0 - self.busy_s / self.makespan_s)

    def merge(self, other: "ScheduleReport") -> "ScheduleReport":
        for k, n in other.tasks_by_kind.items():
            self.tasks_by_kind[k] = self.tasks_by_kind.get(k, 0) + n
        self.posted_comm_s += other.posted_comm_s
        self.finish_comm_s += other.finish_comm_s
        self.compute_s += other.compute_s
        self.overlap_s += other.overlap_s
        self.makespan_s += other.makespan_s
        self.busy_s += other.busy_s
        self.graphs += other.graphs
        return self

    def as_dict(self) -> Dict[str, float]:
        out = {
            "posted_comm_s": self.posted_comm_s,
            "finish_comm_s": self.finish_comm_s,
            "compute_s": self.compute_s,
            "overlap_s": self.overlap_s,
            "overlap_frac": self.overlap_frac,
            "idle_frac": self.idle_frac,
            "makespan_s": self.makespan_s,
        }
        for kind, n in self.tasks_by_kind.items():
            out[f"tasks.{kind.replace('-', '_')}"] = float(n)
        return out


def replay_order(graph: TaskGraph, ntasks: Optional[int] = None):
    """The order the ready-queue rule (among tasks whose dependencies are
    done, the lowest :data:`KIND_PRIORITY`, then the lowest submission id)
    runs the first ``ntasks`` tasks of ``graph`` in, and their count per
    kind: computed the first time, then recorded on the graph and replayed.
    A prefix is closed under dependencies (edges point backwards)."""
    n = len(graph.tasks) if ntasks is None else ntasks
    got = graph.replays.get(n)
    if got is None:
        tasks = graph.tasks
        unmet = [len(t.deps) for t in tasks[:n]]
        ready = [(KIND_PRIORITY[t.kind], t.tid) for t in tasks[:n] if not t.deps]
        heapq.heapify(ready)
        order = []
        while ready:
            tid = heapq.heappop(ready)[1]
            order.append(tasks[tid])
            for d in tasks[tid].dependents:
                if d < n:
                    unmet[d] -= 1
                    if unmet[d] == 0:
                        heapq.heappush(ready, (KIND_PRIORITY[tasks[d].kind], d))
        if len(order) != n:  # edges point backwards: only a forged edge
            raise RuntimeError("scheduler stalled: the task graph has a cycle")
        got = graph.replays[n] = (order, graph.counts_by_kind(n))
    return got


class Scheduler:
    """Executes a TaskGraph in the driver, collecting a report."""

    def __init__(self, profiler=None, tracer=None, trace_rank: int = 0,
                 perfscope=None) -> None:
        self.profiler = profiler
        self.tracer = tracer
        self.trace_rank = trace_rank
        #: optional repro.observability.perfscope.PerfScope collector
        self.perfscope = perfscope

    def run(self, graph: TaskGraph, ntasks: Optional[int] = None,
            armed: Optional[Dict[int, Exception]] = None) -> ScheduleReport:
        """Run the first ``ntasks`` tasks of ``graph`` (all by default) in
        their :func:`replay_order`; a task with an entry in ``armed`` raises
        it instead of running (an injected fault)."""
        t_start = time.perf_counter()
        order, counts = replay_order(graph, ntasks)
        report = ScheduleReport(tasks_by_kind=dict(counts), graphs=1)

        scope = self.perfscope
        trace = scope.begin_stage(graph, len(order)) if (
            scope is not None and scope.enabled) else None
        # anchor this stage's spans on the tracer's own timeline so the
        # runtime track renders as one continuous run, not per-stage piles
        base_us = self.tracer.now_us() if self.tracer is not None else 0.0

        def now() -> float:
            return time.perf_counter() - t_start

        # comm windows: channel -> post-completion time; closed windows
        # accumulate (open, close) intervals for the overlap integral
        open_windows: Dict[Hashable, float] = {}
        windows: List[Tuple[float, float]] = []
        compute_spans: List[Tuple[float, float]] = []

        for task in order:
            tid = task.tid
            # the first consumer of a posted channel starting (comm-wait,
            # or e.g. an interp task using posted coords) closes its
            # in-flight window
            if (task.channel is not None and task.kind != "comm-post"
                    and task.channel in open_windows):
                windows.append((open_windows.pop(task.channel), now()))
            t0 = now()
            with ExitStack() as stack:
                if self.profiler is not None:
                    for name in task.regions:
                        stack.enter_context(self.profiler.region(name))
                if armed and tid in armed:
                    raise armed[tid]
                task.fn()
            dur = now() - t0
            if trace is not None:
                trace.ran(tid, t0, dur)
            report.busy_s += dur
            if task.kind == "comm-post":
                report.posted_comm_s += dur
                if task.channel is not None:
                    open_windows[task.channel] = now()
            elif task.kind == "comm-wait":
                report.finish_comm_s += dur
            elif task.kind == "compute":
                report.compute_s += dur
                compute_spans.append((t0, t0 + dur))
            if self.tracer is not None:
                self.tracer.complete(
                    task.name, base_us + t0 * 1e6, dur * 1e6,
                    rank=self.trace_rank, stream=RUNTIME_STREAM, cat="task",
                    args={"kind": task.kind},
                )
            if trace is not None:
                trace.merged(tid, now())

        # any window never closed by a comm-wait closes at makespan end
        for t_open in open_windows.values():
            windows.append((t_open, now()))
        report.makespan_s = now()
        report.overlap_s = _interval_overlap(compute_spans, windows)
        if trace is not None:
            trace.close(report.makespan_s)
        return report


def _interval_overlap(spans: List[Tuple[float, float]],
                      windows: List[Tuple[float, float]]) -> float:
    """Total length of ``spans`` covered by the union of ``windows``."""
    if not spans or not windows:
        return 0.0
    merged: List[List[float]] = []
    for lo, hi in sorted(windows):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    total = 0.0
    for s0, s1 in spans:
        for w0, w1 in merged:
            lo, hi = max(s0, w0), min(s1, w1)
            if lo < hi:
                total += hi - lo
    return total
