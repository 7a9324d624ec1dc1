"""The stage graph is a per-regrid object: built once per level storage,
run by every RK stage, dropped whenever level storage is built or cleared.

The stale-graph trap joins the stale-plan and stale-batch ones
(``tests/core/test_stale_batch.py``): a regrid that replaces a level must
never replay a task of the graph built for the storage it replaced — not
even when ``AmrCore.regrid`` skips ``remake_level`` for an unchanged fine
level above the replaced one.
"""

import numpy as np

from repro.amr.fillpatch import FillPatchOp
from repro.backend import use_backend
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.numerics.rk3 import NSTAGES
from repro.runtime import engine as engine_module
from repro.runtime import rk3graph
from repro.runtime.engine import RuntimeEngine

STEPS = 6


def churn_sim(version="2.0", regrid_int=1):
    """Small boxes rebuilt every step, with the curvilinear interpolator's
    coordinate ParallelCopy in the graph."""
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(
        version=version, nranks=3, ranks_per_node=3, max_level=2,
        max_grid_size=16, blocking_factor=8, regrid_int=regrid_int,
        backend_target="device"))
    sim.initialize()
    return sim


def advance(sim, steps=STEPS):
    """``steps`` steps; before the fourth, level 1 is remade on its own
    boxes under level 2 — storage replaced below a fine level whose
    BoxArray did not change.  Returns every fab's final array."""
    for step in range(steps):
        if step == 3:
            assert sim.finest_level == 2
            kept = sim.state[2]
            with use_backend(sim.exec_backend):
                sim.remake_level(1, sim.box_arrays[1], sim.dmaps[1])
            assert sim.state[2] is kept
        sim.step()
    return {(lev, i): fab.whole().copy()
            for lev in range(sim.finest_level + 1)
            for i, fab in sim.state[lev]}


def test_stale_graph_trap(monkeypatch):
    sim = churn_sim()
    touched = {"ops": 0, "batches": 0}

    def live_op(op):
        """A FillPatch op that runs reads and writes live storage only."""
        lev = [lev for lev, mf in sim.state.items() if mf is op.fine]
        assert len(lev) == 1, "a replayed task touched a replaced level"
        lev = lev[0]
        if lev:
            assert op.crse is sim.state[lev - 1], "stale coarse level"
            assert op.crse_coords is sim.coords[lev - 1]
            assert op.fine_coords is sim.coords[lev]
        touched["ops"] += 1

    for name in ("post_fillboundary", "post_coords", "finish_fillboundary",
                 "interp_fab"):
        def checked(op, *args, _inner=getattr(FillPatchOp, name)):
            live_op(op)
            return _inner(op, *args)

        monkeypatch.setattr(FillPatchOp, name, checked)

    inner = rk3graph.rhs_update

    def live_batch(kernels, case, bound, *rest):
        live = [(lev, b) for lev, bs in sim.batches.items() for b in bs
                if b.metrics is bound.stage.metrics]
        assert len(live) == 1, "a replayed task ran a replaced batch"
        lev, b = live[0]
        assert bound.stage.u is sim.state[lev].arrays[b.group]
        assert bound.du is sim.du[lev].arrays[b.group]
        for _, _, coords, _ in bound.sources:
            assert np.shares_memory(coords, sim.coords[lev].arrays[b.group])
        touched["batches"] += 1
        return inner(kernels, case, bound, *rest)

    monkeypatch.setattr(rk3graph, "rhs_update", live_batch)
    replayed = advance(sim)
    builds, regrids = sim.engine.graphs_built, sim.regrid_count
    sim.close()
    assert touched["ops"] and touched["batches"]
    assert 1 < builds <= regrids + 1 < NSTAGES * STEPS, (
        "every regrid that replaced storage rebuilt the graph, and only "
        "those: the other stages replayed it")

    # the reference: the same run with the graph rebuilt for every stage
    monkeypatch.undo()
    monkeypatch.setattr(RuntimeEngine, "stage_graph",
                        lambda self: rk3graph.build_stage_graph(self.sim))
    ref = churn_sim()
    reference = advance(ref)
    ref.close()
    assert set(replayed) == set(reference)
    for key in reference:
        assert np.array_equal(replayed[key], reference[key]), key


def test_a_step_without_a_regrid_builds_no_graph(monkeypatch):
    sim = churn_sim(regrid_int=2)
    calls = []
    inner = engine_module.build_stage_graph
    monkeypatch.setattr(engine_module, "build_stage_graph",
                        lambda s: calls.append(s.step_count) or inner(s))
    per_step = []
    for _ in range(5):
        before, regrids = len(calls), sim.regrid_count
        sim.step()
        per_step.append((sim.regrid_count > regrids, len(calls) - before))
        assert sim.step_graph_builds == per_step[-1][1]
    sim.close()
    assert [n for regridded, n in per_step if not regridded] == [0, 0]
    assert all(n <= 1 for _, n in per_step) and calls


class TaskNames:
    """A tracer that keeps the names of the tasks the scheduler ran."""

    def __init__(self):
        self.names = []

    def at_us(self, t):
        return 0.0

    def complete(self, name, *args, **kwargs):
        self.names.append(name)


def test_the_replayed_order_is_a_fresh_graphs_order_in_every_stage():
    sim = churn_sim(regrid_int=3)
    sim.step()                       # regrids, builds the graph
    ran = TaskNames()
    sim.engine.scheduler.tracer = ran
    stages = []
    inner = sim.engine.run_stage

    def run_stage(dt, stage):
        first = len(ran.names)
        out = inner(dt, stage)
        stages.append(ran.names[first:])
        return out

    sim.engine.run_stage = run_stage
    cached = sim.engine.stage_graph()
    sim.step()                       # no regrid: replays it
    assert sim.engine.stage_graph() is cached and sim.step_graph_builds == 0
    fresh = rk3graph.build_stage_graph(sim)
    sim.close()
    assert [t.name for t in fresh.tasks] == [t.name for t in cached.tasks]
    assert len(stages) == NSTAGES
    for stage, names in enumerate(stages):
        tasks = fresh.stage_tasks(stage)
        # a task follows only tasks that run before it
        assert [t.tid for t in tasks] == list(range(len(tasks)))
        assert all(d < t.tid for t in tasks for d in t.deps)
        assert names == [t.name for t in tasks], stage
    assert any(name.startswith("AverageDown") for name in stages[-1])
    assert not any(name.startswith("AverageDown") for s in stages[:-1]
                   for name in s)


def test_every_interp_task_follows_its_levels_coordinate_copy():
    """The graph's edge, not a flag on the op, orders the coordinate
    ParallelCopy before the interpolation that reads its plan."""
    sim = churn_sim()
    g = rk3graph.build_stage_graph(sim)
    sim.close()
    post = {t.name[len("PC_coords_nowait("):-1]: t.tid for t in g.tasks
            if t.name.startswith("PC_coords_nowait(")}
    interps = [t for t in g.tasks if t.name.startswith("Interp(")]
    assert set(post) == {f"L{lev}" for lev in (1, 2)}
    assert [t.name for t in interps] == ["Interp(L1)", "Interp(L2)"]
    for t in interps:
        lev = t.name[len("Interp("):-1]
        assert post[lev] in t.deps, t.name


def test_clearing_a_level_drops_the_graph():
    sim = churn_sim()
    sim.step()
    assert sim.engine._graph is not None
    sim.clear_level(sim.finest_level)
    assert sim.engine._graph is None
    sim.close()


def test_building_level_storage_drops_the_graph():
    """Storage built without a clear drops the graph too: the one rule is
    that building or clearing level storage drops it (there is no key on
    the storage to compare)."""
    sim = churn_sim()
    sim.step()
    engine = sim.engine
    first = engine.stage_graph()
    assert engine.stage_graph() is first
    built = engine.graphs_built
    sim._build_level_storage(1, sim.box_arrays[1], sim.dmaps[1])
    assert engine._graph is None
    assert engine.stage_graph() is not first
    assert engine.graphs_built == built + 1
    sim.close()
