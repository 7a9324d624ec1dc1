"""The stage program's runner, with overlap metering.

A stage is a list of :class:`Task` in the order they run — every level's
``comm-post`` halves first (halo exchanges in flight as early as
possible), then per level its finish, interpolation, boundary fill and
compute batches, and in the last stage AverageDown — built by
:func:`repro.runtime.rk3graph.build_stage_graph`.  :meth:`Scheduler.run`
runs it front to back in the driver process: there is one execution path
(DESIGN.md, "One way to run a step").

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
kernel class and by compute batch, and the critical path over the tasks'
``deps`` edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import (Any, Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple)

#: tracer stream id of the runtime track
RUNTIME_STREAM = 8


@dataclass
class Task:
    """One unit of a stage program: a FillBoundary post or finish, a
    coordinate ParallelCopy post, an interpolation, a boundary fill, a
    compute batch or an AverageDown."""

    #: position in the stage program (the order it runs in)
    tid: int
    name: str
    #: ``comm-post``, ``comm-wait``, ``interp``, ``bc``, ``compute``, ``comm``
    kind: str
    fn: Callable[[], Any]
    #: TinyProfiler region names to nest while the task runs
    regions: Tuple[str, ...] = ()
    #: comm channel linking a ``comm-post`` task to the tasks that consume
    #: it, so the scheduler can measure the in-flight window
    channel: Optional[Hashable] = None
    #: tids of the earlier tasks this one needs done
    deps: Tuple[int, ...] = ()


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
                 records: Sequence[Tuple[float, float]], t_start: float,
                 t_end: float) -> "ScheduleReport":
        """The report of one stage, derived from the ``(t0, dur)`` record of
        each task of ``order`` (clock readings between ``t_start`` and
        ``t_end``)."""
        rep = cls(graphs=1, makespan_s=t_end - t_start)
        # comm windows: channel -> post-completion time; closed windows
        # accumulate (open, close) intervals for the overlap integral
        open_windows: Dict[Hashable, float] = {}
        windows: List[Tuple[float, float]] = []
        compute_spans: List[Tuple[float, float]] = []
        chain: Dict[int, float] = {}  # tid -> longest chain ending there
        counts = rep.tasks_by_kind
        by_class, by_batch = rep.by_class, rep.by_batch
        for task, (t0, dur) in zip(order, records):
            kind, channel = task.kind, task.channel
            counts[kind] = counts.get(kind, 0) + 1
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
            # a task's deps run before it, so every chain is known
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


class Scheduler:
    """Runs a stage program in the driver, collecting a report."""

    def __init__(self, profiler=None, tracer=None) -> None:
        self.profiler = profiler
        #: the run's tracer when it records: one span per task on the
        #: runtime track of rank 0
        self.tracer = tracer

    def run(self, tasks: Sequence[Task],
            armed: Optional[Dict[int, Exception]] = None) -> ScheduleReport:
        """Run ``tasks`` front to back; a task with an entry in ``armed``
        raises it instead of running (an injected fault)."""
        clock, profiler, tracer = perf_counter, self.profiler, self.tracer
        t_start = clock()
        records: List[Tuple[float, float]] = []
        for task in tasks:
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
        return ScheduleReport.of_stage(tasks, records, t_start, clock())


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
