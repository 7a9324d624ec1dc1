"""Build the program of the RK3 stages of the CRoCCo advance.

The program is Algorithm 2's loop, emitted in the order it runs: first
every level's posted halves — ``FB_nowait(Lk)`` and, where the
interpolator reads coordinates, ``PC_coords_nowait(Lk)`` — in level order,
so the fine levels' FillBoundary and coordinate ParallelCopy are in flight
while the coarse levels compute; then per level ``FB_finish``, its
``Interp`` task (one pass over the level), ``BC_Fill`` and its compute
batches; and, in the last stage only, ``AverageDown`` finest first.

Each task names the earlier tasks it needs done (``deps``, read by the
report's critical path), by five structural rules:

- ``FB_finish(L)`` <- ``FB_nowait(L)``;
- ``Interp(L)`` <- ``FB_finish(L)``, every ``Box(L-1,...)`` and
  ``PC_coords_nowait(L)`` when present;
- ``BC_Fill(L)`` <- ``FB_finish(L)`` and ``Interp(L)``;
- ``Box(L,...)`` <- ``BC_Fill(L)``;
- ``AverageDown(L+1->L)`` <- every ``Box`` of levels L+1 and L, and
  ``AverageDown(L+2->L+1)`` when present.

One program serves every stage of every step until level storage is
built or cleared again (``Crocco`` then drops it:
``RuntimeEngine.drop_graph``), and so do the batches it binds when it is
built (:func:`bound_batches`) — their RK stages and ComputeDt rates —
which die with it.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List

from repro.amr.fillpatch import FillPatchOp
from repro.kernels.batch import BoundBatch, bind_batches, rhs_update
from repro.numerics.rk3 import NSTAGES
from repro.runtime.scheduler import Task


class StageGraph:
    """The program of one level storage, run per RK stage: tasks
    ``[0, every)`` run in every stage, the rest (AverageDown) in the last.
    The batch closures read ``args.dt`` / ``args.stage`` when they run (and
    hold ``args``, not the graph: a dropped graph is freed at once)."""

    def __init__(self) -> None:
        self.tasks: List[Task] = []
        self.args = SimpleNamespace(dt=0.0, stage=0)
        self.every = 0
        #: each level's bound batches, in ``sim.batches`` order: the batch
        #: tasks run their stages, ``Crocco.max_rates`` their rates
        self.bound: List[List[BoundBatch]] = []

    def add(self, name, fn, kind="compute", regions=(), channel=None,
            after=()) -> Task:
        """Append the task that runs next, after the tasks ``after``."""
        task = Task(len(self.tasks), name, kind, fn, tuple(regions), channel,
                    tuple(t.tid for t in after))
        self.tasks.append(task)
        return task

    def stage_tasks(self, stage: int) -> List[Task]:
        """The tasks stage ``stage`` runs, in order."""
        return self.tasks if stage == NSTAGES - 1 else self.tasks[:self.every]


def build_stage_graph(sim) -> StageGraph:
    """The stage program of ``sim``'s (a :class:`Crocco`) level storage."""
    g = StageGraph()
    bound = g.bound = bound_batches(sim)
    posts = []   # per level: its FillPatch op and its posted halves
    for lev in range(sim.finest_level + 1):
        needs = lev > 0 and sim.interp.needs_coords
        op = FillPatchOp(
            sim.state[lev], sim.geoms[lev],
            crse=sim.state[lev - 1] if lev > 0 else None,
            ratio=sim.ref_ratio_iv() if lev > 0 else None,
            interp=sim.interp if lev > 0 else None,
            crse_coords=sim.coords[lev - 1] if needs else None,
            fine_coords=sim.coords[lev] if needs else None,
        )
        fb_post = g.add(
            f"FB_nowait(L{lev})", op.post_fillboundary, kind="comm-post",
            channel=("fb", lev), regions=("FillPatch", "FillBoundary_nowait"),
        )
        pc_post = []
        if needs:
            pc_post.append(g.add(
                f"PC_coords_nowait(L{lev})", op.post_coords, kind="comm-post",
                channel=("pc", lev), regions=("FillPatch", "ParallelCopy"),
            ))
        posts.append((op, fb_post, pc_post))

    computes: List[List[Task]] = []
    for lev, (op, fb_post, pc_post) in enumerate(posts):
        finish = g.add(
            f"FB_finish(L{lev})", op.finish_fillboundary, kind="comm-wait",
            channel=("fb", lev), after=(fb_post,),
            regions=("FillPatch", "FillBoundary_finish"),
        )
        # the interpolation reads the whole coarse level: it follows every
        # coarse compute task
        interps = [
            g.add(f"Interp(L{lev})", op.interp_fab, kind="interp",
                  channel=("pc", lev) if pc_post else None,
                  after=[finish, *computes[-1], *pc_post],
                  regions=("FillPatch", "ParallelCopy"))
        ] if lev > 0 else []
        # sim._bc_fill opens its own BC_Fill profiler region
        bc = g.add(f"BC_Fill(L{lev})", (lambda lev=lev: sim._bc_fill(lev)),
                   kind="bc", after=(finish, *interps))
        computes.append([
            # the first member names the node: the report's kernel class
            # and batch rows and ``task_error@...:Box`` fault plans read it
            g.add(f"Box(L{lev},b{batch.ids[0]})x{len(batch.ids)}",
                  _batch_fn(sim, bound[lev][k], g.args), after=(bc,))
            for k, batch in enumerate(sim.batches[lev])
        ])
    g.every = len(g.tasks)
    finer = []
    for lev in range(sim.finest_level - 1, -1, -1):
        finer = [g.add(
            f"AverageDown(L{lev + 1}->L{lev})", _avg_fn(sim, lev), kind="comm",
            after=[*computes[lev + 1], *computes[lev], *finer],
            regions=("AverageDown",),
        )]
    return g


def bound_batches(sim) -> List[List[BoundBatch]]:
    """Every batch of ``sim``'s level storage bound at once, per level: to
    this storage, so the program that holds them is dropped with it."""
    levels = range(sim.finest_level + 1)
    flat = iter(bind_batches(sim.kernels, sim.case, [
        (*(mf.arrays[batch.group]
           for mf in (sim.state[lev], sim.du[lev], sim.coords[lev])),
         batch.metrics, batch.ranks)
        for lev in levels for batch in sim.batches[lev]], sim.ng))
    return [[next(flat) for _ in sim.batches[lev]] for lev in levels]


def _batch_fn(sim, batch: BoundBatch, args: SimpleNamespace):
    """The RK stage of one bound batch at the time, ``dt`` and stage the
    graph is replayed with, when it runs."""

    def run() -> None:
        rhs_update(sim.kernels, sim.case, batch, sim.time, args.dt,
                   args.stage)

    return run


def _avg_fn(sim, lev: int):
    def run() -> None:
        from repro.amr.average_down import average_down

        average_down(sim.state[lev + 1], sim.state[lev], sim.ref_ratio_iv())

    return run
