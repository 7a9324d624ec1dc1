"""The reference stage graph: the RK stage as it was built before the
builder emitted its tasks in run order with their edges, verbatim — tasks
with declared read/write sets of :class:`DataKey` items, edges inferred
by the RAW/WAW/WAR hazard rules of :class:`TaskGraph`, and the order the
ready-queue rule (:func:`replay_order`: among tasks whose dependencies
are done, the lowest :data:`KIND_PRIORITY`, then the lowest submission
id) ran them in.

They left ``src/`` because the inference always gave back the same fixed
order (Algorithm 2's loop) and cost most of each graph build; they stay
here as the oracle: ``tests/runtime/test_stage_program.py`` requires the
program ``repro.runtime.rk3graph.build_stage_graph`` emits to run the
ready-queue order of this graph in every RK stage, and its edges to have
the same transitive closure as the inferred ones.  The batch and
AverageDown closures are the builder's own (:mod:`repro.runtime.rk3graph`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.amr.fillpatch import FillPatchOp
from repro.numerics.rk3 import NSTAGES
from repro.runtime.rk3graph import _avg_fn, _batch_fn, bound_batches

# -- repro/runtime/graph.py --------------------------------------------------

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


# -- repro/runtime/scheduler.py: the ready-queue rule -------------------------

#: scheduling priority by task kind (lower runs first among ready tasks)
KIND_PRIORITY = {
    "comm-post": 0,
    "bc": 1,
    "interp": 1,
    "compute": 2,
    "comm": 2,
    "comm-wait": 3,
}


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


# -- repro/runtime/rk3graph.py -------------------------------------------------

class StageGraph(TaskGraph):
    """The graph of one level-storage layout, replayed per RK stage: tasks
    ``[0, every)`` run in every stage, the rest (AverageDown) in the last.
    The batch closures read ``args.dt`` / ``args.stage`` when they run (and
    hold ``args``, not the graph: a dropped graph is freed at once)."""

    def __init__(self) -> None:
        super().__init__()
        self.args = SimpleNamespace(dt=0.0, stage=0)
        self.every = 0

    def ntasks(self, stage: int) -> int:
        return len(self.tasks) if stage == NSTAGES - 1 else self.every


def _keys(mfid, mf):
    """One whole-fab DataKey per box of ``mf``."""
    return tuple(DataKey(mfid, i) for i, _ in mf)


def build_stage_graph(sim) -> StageGraph:
    """The stage graph of ``sim``'s (a :class:`Crocco`) level storage."""
    g = StageGraph()
    bound = bound_batches(sim)
    for lev in range(sim.finest_level + 1):
        state = sim.state[lev]
        needs = lev > 0 and sim.interp.needs_coords
        op = FillPatchOp(
            state, sim.geoms[lev],
            crse=sim.state[lev - 1] if lev > 0 else None,
            ratio=sim.ref_ratio_iv() if lev > 0 else None,
            interp=sim.interp if lev > 0 else None,
            crse_coords=sim.coords[lev - 1] if needs else None,
            fine_coords=sim.coords[lev] if needs else None,
        )
        skeys = _keys(("state", lev), state)
        ckeys = _keys(("coords", lev), sim.coords[lev])

        fb_post = g.add(
            f"FB_nowait(L{lev})", op.post_fillboundary, kind="comm-post",
            reads=skeys, channel=("fb", lev),
            regions=("FillPatch", "FillBoundary_nowait"),
        )
        pc_post = None
        if needs:
            pc_post = g.add(
                f"PC_coords_nowait(L{lev})", op.post_coords,
                kind="comm-post",
                reads=_keys(("coords", lev - 1), sim.coords[lev - 1]),
                channel=("pc", lev),
                regions=("FillPatch", "ParallelCopy"),
            )
        g.add(
            f"FB_finish(L{lev})", op.finish_fillboundary, kind="comm-wait",
            writes=skeys, channel=("fb", lev), after=(fb_post,),
            regions=("FillPatch", "FillBoundary_finish"),
        )
        if lev > 0:
            # the interpolation reads the whole coarse level: one edge to
            # each of its compute tasks (every coarse fab's last writer) in
            # place of a read per coarse fab; AverageDown, the next coarse
            # writer, follows through BC_Fill and this level's compute.  It
            # writes every fab of the level, in one pass.
            g.add(
                f"Interp(L{lev})", op.interp_fab,
                kind="interp",
                writes=skeys,
                channel=("pc", lev) if needs else None,
                after=computes + ([pc_post] if needs else []),
                regions=("FillPatch", "ParallelCopy"),
            )
        # sim._bc_fill opens its own BC_Fill profiler region
        g.add(
            f"BC_Fill(L{lev})", (lambda lev=lev: sim._bc_fill(lev)),
            kind="bc", reads=ckeys, writes=skeys,
        )
        computes = []
        for batch, stage in zip(sim.batches[lev], bound[lev]):
            touched = [DataKey((tag, lev), i) for i in batch.ids
                       for tag in ("state", "du")]
            computes.append(g.add(
                # the first member names the node: the report's kernel
                # class and batch rows and ``task_error@...:Box`` fault
                # plans read it
                f"Box(L{lev},b{batch.ids[0]})x{len(batch.ids)}",
                _batch_fn(sim, stage, g.args),
                kind="compute",
                reads=touched + [DataKey(("coords", lev), i)
                                 for i in batch.ids],
                writes=touched,
            ))
    g.every = len(g.tasks)
    for lev in range(sim.finest_level - 1, -1, -1):
        g.add(
            f"AverageDown(L{lev + 1}->L{lev})",
            _avg_fn(sim, lev),
            kind="comm",
            reads=_keys(("state", lev + 1), sim.state[lev + 1]),
            writes=_keys(("state", lev), sim.state[lev]),
            regions=("AverageDown",),
        )
    return g
