"""Task graph: units of work with explicit data dependencies.

A :class:`Task` is one unit of schedulable work — a per-batch kernel
application, a FillBoundary pack (nowait) or unpack (finish), a
ParallelCopy gather, an AverageDown restriction — with declared *read*
and *write* sets of :class:`DataKey` items.  A key names a component
range of one box of one MultiFab, ``(mf, box, comp_lo, comp_hi)``, the
granularity at which CRoCCo's step actually shares data.

:class:`TaskGraph` infers edges from the declared sets using the classic
hazard rules over program (submission) order:

- **RAW** — a reader depends on the last writer of any overlapping key;
- **WAW** — a writer depends on the last writer of any overlapping key;
- **WAR** — a writer depends on every reader since that last writer.

Explicit ``after=[...]`` edges can be added for control dependencies the
data sets do not capture (e.g. a finish task on its matching post task).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

#: the whole component range of a fab (used when a task touches every comp)
ALL_COMPS = (0, 1 << 30)


@dataclass(frozen=True)
class DataKey:
    """One box's component range of one MultiFab: (mf, box, comps)."""

    mf: Hashable
    box: int
    comp_lo: int = ALL_COMPS[0]
    comp_hi: int = ALL_COMPS[1]  # exclusive

    def overlaps(self, other: "DataKey") -> bool:
        return (self.mf == other.mf and self.box == other.box
                and self.comp_lo < other.comp_hi
                and other.comp_lo < self.comp_hi)


#: task kinds, in scheduling-priority order (see scheduler.KIND_PRIORITY)
KINDS = ("comm-post", "bc", "interp", "compute", "comm", "comm-wait")


@dataclass
class Task:
    """One schedulable unit of work."""

    tid: int
    name: str
    kind: str
    fn: Callable[[], Any]
    reads: Tuple[DataKey, ...] = ()
    writes: Tuple[DataKey, ...] = ()
    #: TinyProfiler region names to nest while the task runs
    regions: Tuple[str, ...] = ()
    #: comm channel linking a ``comm-post`` task to its ``comm-wait``
    #: partner so the scheduler can measure the in-flight window
    channel: Optional[Hashable] = None
    deps: set = field(default_factory=set)       # tids this task waits on
    dependents: set = field(default_factory=set)  # tids waiting on this task

    def __repr__(self) -> str:
        return f"Task({self.tid}, {self.name!r}, {self.kind})"


class TaskGraph:
    """A DAG of tasks with automatic hazard-based dependency inference."""

    def __init__(self) -> None:
        self.tasks: List[Task] = []
        # per (mf, box): last writer tid + its keys, and readers since then
        self._last_writer: Dict[Tuple[Hashable, int], List[Tuple[int, DataKey]]] = {}
        self._readers: Dict[Tuple[Hashable, int], List[Tuple[int, DataKey]]] = {}

    def __len__(self) -> int:
        return len(self.tasks)

    def add(
        self,
        name: str,
        fn: Callable[[], Any],
        kind: str = "compute",
        reads: Sequence[DataKey] = (),
        writes: Sequence[DataKey] = (),
        regions: Sequence[str] = (),
        channel: Optional[Hashable] = None,
        after: Sequence[Task] = (),
    ) -> Task:
        """Append one task; edges to earlier tasks are inferred here."""
        if kind not in KINDS:
            raise ValueError(f"unknown task kind {kind!r}; options {KINDS}")
        task = Task(tid=len(self.tasks), name=name, kind=kind, fn=fn,
                    reads=tuple(reads), writes=tuple(writes),
                    regions=tuple(regions), channel=channel)
        for dep in after:
            self._edge(dep.tid, task)
        for key in task.reads:  # RAW
            for wtid, wkey in self._last_writer.get((key.mf, key.box), ()):
                if key.overlaps(wkey):
                    self._edge(wtid, task)
        for key in task.writes:
            slot = (key.mf, key.box)
            for wtid, wkey in self._last_writer.get(slot, ()):  # WAW
                if key.overlaps(wkey):
                    self._edge(wtid, task)
            for rtid, rkey in self._readers.get(slot, ()):  # WAR
                if key.overlaps(rkey):
                    self._edge(rtid, task)
        # update hazard bookkeeping *after* inference (a task may read and
        # write the same key without depending on itself)
        for key in task.writes:
            slot = (key.mf, key.box)
            kept = [(t, k) for t, k in self._last_writer.get(slot, ())
                    if not key.overlaps(k)]
            kept.append((task.tid, key))
            self._last_writer[slot] = kept
            self._readers[slot] = [
                (t, k) for t, k in self._readers.get(slot, ())
                if not key.overlaps(k)
            ]
        for key in task.reads:
            self._readers.setdefault((key.mf, key.box), []).append(
                (task.tid, key)
            )
        self.tasks.append(task)
        return task

    def _edge(self, src_tid: int, dst: Task) -> None:
        if src_tid != dst.tid:
            dst.deps.add(src_tid)
            self.tasks[src_tid].dependents.add(dst.tid)

    # -- queries -----------------------------------------------------------
    def roots(self) -> List[Task]:
        """Tasks with no dependencies (ready immediately)."""
        return [t for t in self.tasks if not t.deps]

    def topological_order(self) -> List[Task]:
        """Kahn's algorithm; raises on cycles (defensive — submission
        order always yields a DAG since edges only point backwards)."""
        indeg = {t.tid: len(t.deps) for t in self.tasks}
        ready = [t.tid for t in self.tasks if indeg[t.tid] == 0]
        out: List[Task] = []
        while ready:
            tid = ready.pop()
            out.append(self.tasks[tid])
            for d in self.tasks[tid].dependents:
                indeg[d] -= 1
                if indeg[d] == 0:
                    ready.append(d)
        if len(out) != len(self.tasks):
            raise ValueError("task graph contains a cycle")
        return out

    def counts_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for t in self.tasks:
            out[t.kind] = out.get(t.kind, 0) + 1
        return out

    def critical_path_length(self) -> int:
        """Longest dependency chain (task count), a parallelism bound."""
        depth: Dict[int, int] = {}
        for t in self.topological_order():
            depth[t.tid] = 1 + max((depth[d] for d in t.deps), default=0)
        return max(depth.values(), default=0)
