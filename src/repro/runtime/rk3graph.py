"""Build the task graph of the RK3 stages of the CRoCCo advance.

The graph encodes exactly the work Algorithm 2 does per stage — FillPatch
(split into posted and finishing halves), BC_Fill, the
WENO/Viscous/Update kernels of each box batch, and (last stage) AverageDown — with data
dependencies inferred from declared read/write sets.  Tasks are submitted
in the legacy eager order, so a scheduler that never reorders reproduces
the old driver bit for bit; the ready-queue scheduler then hoists the
``comm-post`` halves of *every* level to the front of the stage, opening
the windows in which coarse-level interior kernels overlap the fine
levels' in-flight FillBoundary and coordinate ParallelCopy.

One graph serves every stage of every step until the next regrid: its
topology depends only on the level storage (the engine keys it on that).

MultiFab ids for :class:`~repro.runtime.graph.DataKey` are the tuples
``("state", lev)``, ``("du", lev)`` and ``("coords", lev)``.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.amr.fillpatch import FillPatchOp
from repro.kernels.batch import rhs_update
from repro.numerics.rk3 import NSTAGES
from repro.runtime.graph import DataKey, TaskGraph


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
            # an interpolation reads the whole coarse level: one edge to each
            # of its compute tasks (every coarse fab's last writer) in place
            # of a read per coarse fab; AverageDown, the next coarse writer,
            # follows through BC_Fill and this level's compute
            for i, _ in state:
                g.add(
                    f"Interp(L{lev},b{i})",
                    (lambda op=op, i=i: op.interp_fab(i)),
                    kind="interp",
                    writes=(DataKey(("state", lev), i),),
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
        for batch in sim.batches[lev]:
            touched = [DataKey((tag, lev), i) for i in batch.ids
                       for tag in ("state", "du")]
            computes.append(g.add(
                # the first member names the node: the report's kernel
                # class and batch rows and ``task_error@...:Box`` fault
                # plans read it
                f"Box(L{lev},b{batch.ids[0]})x{len(batch.ids)}",
                _batch_fn(sim, lev, batch, g.args),
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


def _batch_fn(sim, lev: int, batch, args: SimpleNamespace):
    """The RK stage of one batch, on the fabs the level holds and at the
    ``dt`` and stage the graph is replayed with, when it runs."""

    def run() -> None:
        rhs_update(
            sim.kernels, sim.case,
            *([mf.fab(i).whole() for i in batch.ids]
              for mf in (sim.state[lev], sim.du[lev], sim.coords[lev])),
            batch.metrics, batch.ranks, sim.ng, sim.time, args.dt, args.stage)

    return run


def _avg_fn(sim, lev: int):
    def run() -> None:
        from repro.amr.average_down import average_down

        average_down(sim.state[lev + 1], sim.state[lev], sim.ref_ratio_iv())

    return run

