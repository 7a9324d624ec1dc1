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

Every executed task is timed once: two clock reads give its record
``(t0, dur)``, and every timing view of the task is derived from that
record — the TinyProfiler regions it declares (charged ``dur`` under the
current nest, reading no clock of their own), its span on the tracer's
runtime track and its region spans on the driver track, and the stage's
:class:`ScheduleReport` (time by task kind, the measured overlap, time by
kernel class and by compute batch, and the critical path of the stage
DAG).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.runtime.graph import Task, TaskGraph

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
    #: longest dependency chain of each stage DAG, weighted by task time
    critical_path_s: float = 0.0
    #: kernel class (the task name before its "(") -> [tasks, seconds]
    by_class: Dict[str, List[float]] = field(default_factory=dict)
    #: compute batch, by its task name (``Box(L1,b3)x8``) -> seconds
    by_batch: Dict[str, float] = field(default_factory=dict)

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

    @property
    def concurrency(self) -> float:
        """Busy time over critical-path time: the concurrency the stage
        DAGs offer (the one lane realizes 1x of it)."""
        if self.critical_path_s <= 0:
            return 0.0
        return self.busy_s / self.critical_path_s

    @classmethod
    def of_stage(cls, order: Sequence[Task],
                 records: Sequence[Tuple[float, float]],
                 counts: Dict[str, int], t_start: float,
                 t_end: float) -> "ScheduleReport":
        """The report of one stage, derived from the ``(t0, dur)`` record of
        each task of ``order`` (clock readings between ``t_start`` and
        ``t_end``)."""
        rep = cls(tasks_by_kind=dict(counts), graphs=1,
                  makespan_s=t_end - t_start)
        # comm windows: channel -> post-completion time; closed windows
        # accumulate (open, close) intervals for the overlap integral
        open_windows: Dict[Hashable, float] = {}
        windows: List[Tuple[float, float]] = []
        compute_spans: List[Tuple[float, float]] = []
        chain: Dict[int, float] = {}  # tid -> longest chain ending there
        by_class, by_batch = rep.by_class, rep.by_batch
        for task, (t0, dur) in zip(order, records):
            kind, channel = task.kind, task.channel
            # the first consumer of a posted channel starting (comm-wait,
            # or e.g. an interp task using posted coords) closes its
            # in-flight window
            if (channel is not None and kind != "comm-post"
                    and channel in open_windows):
                windows.append((open_windows.pop(channel), t0))
            rep.busy_s += dur
            if kind == "comm-post":
                rep.posted_comm_s += dur
                if channel is not None:
                    open_windows[channel] = t0 + dur
            elif kind == "comm-wait":
                rep.finish_comm_s += dur
            elif kind == "compute":
                rep.compute_s += dur
                compute_spans.append((t0, t0 + dur))
                by_batch[task.name] = by_batch.get(task.name, 0.0) + dur
            row = by_class.setdefault(task.name.split("(", 1)[0], [0, 0.0])
            row[0] += 1
            row[1] += dur
            # the order is topological, so every dependency is done
            longest = 0.0
            for d in task.deps:
                if chain[d] > longest:
                    longest = chain[d]
            chain[task.tid] = longest + dur
        # any window never closed by a comm-wait closes at makespan end
        windows.extend((t_open, t_end) for t_open in open_windows.values())
        rep.overlap_s = _interval_overlap(compute_spans, windows)
        rep.critical_path_s = max(chain.values(), default=0.0)
        return rep

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
        self.critical_path_s += other.critical_path_s
        for cls, (n, s) in other.by_class.items():
            row = self.by_class.setdefault(cls, [0, 0.0])
            row[0] += n
            row[1] += s
        for name, s in other.by_batch.items():
            self.by_batch[name] = self.by_batch.get(name, 0.0) + s
        return self

    def as_dict(self) -> Dict[str, float]:
        """Flat dict for the recorder's ``runtime.*`` gauges."""
        out = {
            "posted_comm_s": self.posted_comm_s,
            "finish_comm_s": self.finish_comm_s,
            "compute_s": self.compute_s,
            "overlap_s": self.overlap_s,
            "overlap_frac": self.overlap_frac,
            "idle_frac": self.idle_frac,
            "makespan_s": self.makespan_s,
            "busy_s": self.busy_s,
            "critical_path_s": self.critical_path_s,
            "concurrency": self.concurrency,
        }
        for kind, n in self.tasks_by_kind.items():
            out[f"tasks.{kind.replace('-', '_')}"] = float(n)
        for cls, (n, s) in self.by_class.items():
            out[f"class.{cls}.count"] = float(n)
            out[f"class.{cls}.execute_s"] = s
        for name, s in self.by_batch.items():
            out[f"batch.{name}"] = s
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

    def __init__(self, profiler=None, tracer=None) -> None:
        self.profiler = profiler
        #: the run's tracer when it records: one span per task on the
        #: runtime track of rank 0
        self.tracer = tracer

    def run(self, graph: TaskGraph, ntasks: Optional[int] = None,
            armed: Optional[Dict[int, Exception]] = None) -> ScheduleReport:
        """Run the first ``ntasks`` tasks of ``graph`` (all by default) in
        their :func:`replay_order`; a task with an entry in ``armed`` raises
        it instead of running (an injected fault)."""
        clock, profiler, tracer = perf_counter, self.profiler, self.tracer
        t_start = clock()
        order, counts = replay_order(graph, ntasks)
        records: List[Tuple[float, float]] = []
        for task in order:
            nest = len(task.regions) if profiler is not None else 0
            t0 = clock()
            if nest:
                # the task's regions, charged with its record on exit;
                # regions its body opens nest under them
                profiler.enter(task.regions)
            try:
                if armed and task.tid in armed:
                    raise armed[task.tid]
                task.fn()
            finally:
                dur = clock() - t0
                if nest:
                    profiler.leave(nest, t0, dur)
            records.append((t0, dur))
            if tracer is not None:
                tracer.complete(
                    task.name, tracer.at_us(t0), dur * 1e6,
                    stream=RUNTIME_STREAM, cat="task",
                    args={"kind": task.kind},
                )
        return ScheduleReport.of_stage(order, records, counts, t_start,
                                       clock())


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
