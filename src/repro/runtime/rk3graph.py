"""Build the task graph for one RK3 stage of the CRoCCo advance.

The graph encodes exactly the work Algorithm 2 does per stage — FillPatch
(split into posted and finishing halves), BC_Fill, the
WENO/Viscous/Update kernels of each box batch, and (last stage) AverageDown — with data
dependencies inferred from declared read/write sets.  Tasks are submitted
in the legacy eager order, so a scheduler that never reorders reproduces
the old driver bit for bit; the ready-queue scheduler then hoists the
``comm-post`` halves of *every* level to the front of the stage, opening
the windows in which coarse-level interior kernels overlap the fine
levels' in-flight FillBoundary and coordinate ParallelCopy.

MultiFab ids for :class:`~repro.runtime.graph.DataKey` are the tuples
``("state", lev)``, ``("du", lev)`` and ``("coords", lev)``.
"""

from __future__ import annotations

from repro.amr.fillpatch import FillPatchOp
from repro.kernels.batch import rhs_update
from repro.runtime.graph import DataKey, TaskGraph


def _keys(mfid, mf):
    """One whole-fab DataKey per box of ``mf``."""
    return tuple(DataKey(mfid, i) for i, _ in mf)


def build_stage_graph(sim, dt: float, stage: int) -> TaskGraph:
    """The task graph of one RK stage of ``sim`` (a :class:`Crocco`)."""
    g = TaskGraph()
    nstages = _nstages()
    for lev in range(sim.finest_level + 1):
        state = sim.state[lev]
        needs = lev > 0 and sim.interp.needs_coords
        op = FillPatchOp(
            state, sim.geoms[lev],
            crse=sim.state[lev - 1] if lev > 0 else None,
            geom_crse=sim.geoms[lev - 1] if lev > 0 else None,
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
            crse_keys = _keys(("state", lev - 1), sim.state[lev - 1])
            for i, _ in state:
                g.add(
                    f"Interp(L{lev},b{i})",
                    (lambda op=op, i=i: op.interp_fab(i)),
                    kind="interp",
                    reads=crse_keys,
                    writes=(DataKey(("state", lev), i),),
                    channel=("pc", lev) if needs else None,
                    after=(pc_post,) if pc_post is not None else (),
                    regions=("FillPatch", "ParallelCopy"),
                )
        # sim._bc_fill opens its own BC_Fill profiler region
        g.add(
            f"BC_Fill(L{lev})", (lambda lev=lev: sim._bc_fill(lev)),
            kind="bc", reads=ckeys, writes=skeys,
        )
        for batch in sim.batches[lev]:
            touched = [DataKey((tag, lev), i) for i in batch.ids
                       for tag in ("state", "du")]
            g.add(
                # the first member names the node: kernel_class(), box_of()
                # and ``task_error@...:Box`` fault plans read it as before
                f"Box(L{lev},b{batch.ids[0]})x{len(batch.ids)}",
                _batch_fn(sim, lev, batch, dt, stage),
                kind="compute",
                reads=touched + [DataKey(("coords", lev), i)
                                 for i in batch.ids],
                writes=touched,
            )
    if stage == nstages - 1:
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


def _batch_fn(sim, lev: int, batch, dt: float, stage: int):
    """The RK stage of one batch, on the fabs the level holds when it
    runs."""

    def run() -> None:
        rhs_update(
            sim.kernels, sim.case,
            *([mf.fab(i).whole() for i in batch.ids]
              for mf in (sim.state[lev], sim.du[lev], sim.coords[lev])),
            batch.metrics, batch.ranks, sim.ng, sim.time, dt, stage)

    return run


def _avg_fn(sim, lev: int):
    def run() -> None:
        from repro.amr.average_down import average_down

        average_down(sim.state[lev + 1], sim.state[lev], sim.ref_ratio_iv())

    return run


def _nstages() -> int:
    from repro.numerics.rk3 import NSTAGES

    return NSTAGES
