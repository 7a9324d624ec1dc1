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
        #: what the scheduler recorded the first time it ran a prefix of
        #: this graph, by prefix length: its execution order and counts
        self.replays: Dict[int, Any] = {}

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
        deps = task.deps
        deps.update(dep.tid for dep in after)
        for key in task.reads:  # RAW
            for wtid, wkey in self._last_writer.get((key.mf, key.box), ()):
                if key.overlaps(wkey):
                    deps.add(wtid)
        for key in task.writes:
            slot = (key.mf, key.box)
            for wtid, wkey in self._last_writer.get(slot, ()):  # WAW
                if key.overlaps(wkey):
                    deps.add(wtid)
            for rtid, rkey in self._readers.get(slot, ()):  # WAR
                if key.overlaps(rkey):
                    deps.add(rtid)
        deps.discard(task.tid)
        for d in deps:
            self.tasks[d].dependents.add(task.tid)
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

    def counts_by_kind(self, ntasks: Optional[int] = None) -> Dict[str, int]:
        """Tasks per kind (of the first ``ntasks`` only, when given)."""
        out: Dict[str, int] = {}
        for t in self.tasks[:ntasks]:
            out[t.kind] = out.get(t.kind, 0) + 1
        return out
