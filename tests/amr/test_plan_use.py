"""Communication plans are used, and change nothing that is accounted.

Nothing here is timed.  On the DMR deck (``examples/decks/dmr.inputs``):
a step without a regrid does no box algebra and builds no plan, and what
the run is *charged* — ledger messages and bytes per kind, launch points
per kernel class — is what it was charged before plans existed (the
pinned numbers were taken at the commit before ``repro.amr.plan``).
"""

from contextlib import closing
from pathlib import Path

import pytest

from repro import cli
from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.intvect import IntVect
from repro.core.crocco import Crocco
from repro.io.inputs import InputDeck

DECK = Path(__file__).resolve().parents[2] / "examples" / "decks" / "dmr.inputs"

#: per step (step 0 regrids, step 1 does not): ledger {kind: (messages,
#: bytes)} and {kernel class: launch points}
COMMON_POINTS = {"averagedown": 3316, "flux": 44472, "reduction": 7412,
                 "update": 22236}
PINNED = {
    # v2.0 re-copies the coarse coordinates at every FillPatch (the
    # paper's Sec. VI-B bottleneck): ~4.5x the ParallelCopy messages of 2.1
    "2.0": [
        ({"averagedown": (40, 26528), "fillboundary": (524, 608512),
          "parallelcopy": (2081, 1606544), "reduce": (10, 80)},
         {"fillpatch": 136074, "interp": 11008, "tagging": 5504}),
        ({"averagedown": (40, 26528), "fillboundary": (468, 527616),
          "parallelcopy": (2025, 1480848), "reduce": (10, 80)},
         {"fillpatch": 118470, "interp": 10032, "tagging": 0}),
    ],
    "2.1": [
        ({"averagedown": (40, 26528), "fillboundary": (524, 608512),
          "parallelcopy": (472, 266688), "reduce": (10, 80)},
         {"fillpatch": 85070, "interp": 11008, "tagging": 5504}),
        ({"averagedown": (40, 26528), "fillboundary": (468, 527616),
          "parallelcopy": (450, 245952), "reduce": (10, 80)},
         {"fillpatch": 73974, "interp": 10032, "tagging": 0}),
    ],
}


def make_sim(version):
    config, run = InputDeck.from_file(str(DECK)).resolve(
        {"version": version, "backend_target": "device"})
    sim = Crocco(cli.build_case(run), config)
    sim.initialize()
    return sim


def accounted(sim):
    totals = sim.exec_backend.class_totals()
    return (sim.comm.ledger.by_kind(),
            {c: t["points"] for c, t in totals.items()},
            {c: t["launches"] for c, t in totals.items()})


@pytest.mark.parametrize("version", sorted(PINNED))
def test_accounting_is_what_it_was_before_plans(version):
    with closing(make_sim(version)) as sim:
        for step, (kinds, points) in enumerate(PINNED[version]):
            k0, p0, l0 = accounted(sim)
            sim.step()
            k1, p1, l1 = accounted(sim)
            got_kinds = {k: (n - k0.get(k, (0, 0))[0], b - k0.get(k, (0, 0))[1])
                         for k, (n, b) in k1.items()}
            got_points = {c: p1[c] - p0.get(c, 0) for c in p1}
            assert got_kinds == kinds, f"v{version} step {step}"
            assert got_points == {**COMMON_POINTS, **points}, (
                f"v{version} step {step}")
        # counts fall where points do not (step 1, no regrid)
        launches = {c: l1[c] - l0.get(c, 0) for c in l1}
        assert launches["interp"] == 36, (
            "one Interp launch per fine level, owning rank and RK stage; it "
            "was one per fine fab (120 on this deck), and before that one "
            "per ghost piece (327)")
        assert launches["fillpatch"] == {"2.0": 210, "2.1": 180}[version], (
            "FB_pack, FB_unpack, PC_gather, BC_fill and (2.0) PC_copy run "
            "once per level, owning rank and stage; they ran once per fab "
            "(567 / 516 on this deck), and PC_gather before that once per "
            "ghost piece (1101 / 723)")
        assert (launches["flux"], launches["update"]) == (210, 105), (
            "21 batches of equal-shape boxes, recorded once per owning rank "
            "(35 rank shares), x 2 WENO sweeps (flux) x 3 RK stages; it was "
            "one launch per box: 44 boxes, 264 / 132 on this deck")


@pytest.mark.parametrize("version", sorted(PINNED))
def test_no_box_algebra_and_no_plan_build_between_regrids(version, monkeypatch):
    with closing(make_sim(version)) as sim:
        sim.step()                      # step 0 regrids
        calls = {"intersect": 0, "complement": 0, "Box": 0}

        def counted(cls, name, key):
            inner = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                calls[key] += 1
                return inner(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        for name in ("intersect", "complement"):
            counted(BoxArray, name, name)
        counted(Box, "__init__", "Box")
        regrids, builds = sim.regrid_count, sim.comm.plans_built
        sim.step()
        assert sim.regrid_count == regrids, "step 1 must not regrid"
        assert sim.comm.plans_built == builds and sim.step_plan_builds == 0
        assert calls == {"intersect": 0, "complement": 0, "Box": 0}, (
            "a step between regrids runs its communication from cached "
            "plans (it used to build ~27,000 Box objects on this deck)")


def test_a_regrid_step_builds_few_boxes(monkeypatch):
    """Regrid, clustering and plan construction run on ``(N, 2, dim)``
    arrays: a step that regrids makes ``Box`` / ``IntVect`` objects only at
    the API edges (fabs, tagging), and the fill plans make none at all —
    their stencils are one array pass over the level's cells.  On the churn
    layout (``regrid_int 1``, ``max_grid_size 16``, 66 boxes) the object
    algebra built 5,750 boxes and 19,536 index vectors per step; the
    per-piece stencils, 308 and 670 of the 591 / 1,813 that were left."""
    from repro.amr import fillpatch

    config, run = InputDeck.from_file(
        str(DECK.with_name("dmr_churn.inputs"))).resolve(
            {"backend_target": "device"})
    with closing(Crocco(cli.build_case(run), config)) as sim:
        sim.initialize()
        sim.step()
        made = {"Box": 0, "IntVect": 0}
        for cls in (Box, IntVect):
            def counted(self, *args, _init=cls.__init__, _key=cls.__name__):
                made[_key] += 1
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", counted)
        in_plans = []
        build = fillpatch.build_fill_plan

        def counted_build(*args, **kwargs):
            before = dict(made)
            out = build(*args, **kwargs)
            in_plans.append({k: made[k] - before[k] for k in made})
            return out

        monkeypatch.setattr(fillpatch, "build_fill_plan", counted_build)
        regrids = sim.regrid_count
        sim.step()
        assert sim.regrid_count == regrids + 1 and sim.step_plan_builds > 0
        assert in_plans and all(n == {"Box": 0, "IntVect": 0} for n in in_plans)
        assert made["Box"] <= 300 and made["IntVect"] <= 1200, (
            f"a regrid step built {made['Box']} Box and {made['IntVect']} "
            "IntVect objects (283 / 1,129 when the fill plans' stencils "
            "became one array pass)")


def test_the_finest_fill_plan_build_stays_small():
    """One array pass over every cell of the level must not hold every
    cell's temporaries at once: the tracemalloc peak of the finest level's
    plan build on the DMR deck (v2.0, curvilinear weights and coordinate
    gather) was 0.88-0.95 MB with one stencil call per piece, 2.14 MB for
    a first batched pass, 0.83 MB now."""
    import tracemalloc

    from repro.amr.fillpatch import build_fill_plan
    from repro.backend import use_backend

    with closing(make_sim("2.0")) as sim:
        lev = sim.finest_level
        args = (sim.state[lev], sim.state[lev - 1], sim.geoms[lev],
                sim.ref_ratio_iv(), sim.interp, sim.coords[lev - 1],
                sim.coords[lev])
        with use_backend(sim.exec_backend):
            build_fill_plan(*args)     # first-use imports and caches
            tracemalloc.start()
            try:
                build_fill_plan(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert peak <= 1.05e6, f"{peak / 1e6:.2f} MB"


def test_regrid_step_reports_its_plan_builds():
    with closing(make_sim("2.0")) as sim:
        sim.step()
        assert sim.step_plan_builds > 0   # level 2's first FillPatch


def test_coarse_coordinates_are_gathered_once_per_coarse_layout(monkeypatch):
    """v2.0 copies a coarse level's coordinates into a ghosted temporary
    for the curvilinear weights; the plan of that copy (its launches and
    messages, ``fillpatch._gather_coords``) is built, over 13 steps of a
    small v2.0 deck that regrids every other step, at most once per coarse
    coordinate MultiFab — the remake's interpolation and the next stage's
    fill plan share it — and never in a step without a regrid; a run that
    rebuilds it at every use is charged the same messages and launches and
    ends in the same state."""
    from repro.amr.intvect import IntVect
    from repro.amr.multifab import MultiFab
    from repro.amr.parallelcopy import copy_plan
    from repro.cases.dmr import DoubleMachReflection
    from repro.core.crocco import CroccoConfig

    gathered = []   # the coarse coordinates of every copy plan, kept alive
    pinned = []     # the coarse levels whose cached plan was checked
    plan = MultiFab.plan

    def counted(self, slot, deps, build):
        def copy():
            gathered.append(self)
            return build()
        return plan(self, slot, deps, copy if slot[0] == "coords" else build)

    def run():
        del gathered[:]
        sim = Crocco(DoubleMachReflection(ncells=(64, 16), curvilinear=True),
                     CroccoConfig(version="2.0", nranks=3, ranks_per_node=3,
                                  max_level=2, max_grid_size=16,
                                  blocking_factor=8, regrid_int=2,
                                  backend_target="device"))
        per_step = []   # (regrids, copies) of each step
        with closing(sim):
            sim.initialize()
            for _ in range(13):
                regrids, copies = sim.regrid_count, len(gathered)
                sim.step()
                per_step.append((sim.regrid_count - regrids,
                                 len(gathered) - copies, sim.finest_level))
            # the cached plan is the parent's copy into a ghosted temporary
            for lev in range(sim.finest_level):
                crse, coords = sim.state[lev], sim.coords[lev]
                got = coords._plans.get(("coords", sim.interp.radius))
                if got is None:
                    continue
                pinned.append(lev)
                tmp = MultiFab(crse.ba, crse.dm, coords.ncomp, crse.ngrow
                               + IntVect.filled(crse.dim,
                                                sim.interp.radius + 1),
                               crse.comm)
                want = copy_plan(tmp, coords, coords.ncomp, True)
                assert (got.shares, got.messages) == (want.shares,
                                                      want.messages), lev
            totals = sim.exec_backend.class_totals()
            return per_step, (
                sim.comm.ledger.table.copy(),
                {c: (t["launches"], t["points"]) for c, t in totals.items()},
                [fab.whole().copy() for lev in range(sim.finest_level + 1)
                 for _, fab in sim.state[lev]])

    monkeypatch.setattr(MultiFab, "plan", counted)
    per_step, cached = run()
    assert pinned and sum(r for r, _, _ in per_step) >= 6
    for regrids, copies, finest in per_step:
        assert copies <= regrids * finest, per_step
    assert len({id(c) for c in gathered}) == len(gathered), (
        "a coarse layout's coordinate copy was planned twice")
    copied = len(gathered)

    def uncached(self, slot, deps, build):
        if slot[0] != "coords":
            return plan(self, slot, deps, build)
        gathered.append(self)
        built = build()
        built.deps = deps
        return built

    monkeypatch.setattr(MultiFab, "plan", uncached)
    _, every_use = run()
    assert len(gathered) > copied
    assert cached[:2] == every_use[:2]
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(cached[2], every_use[2]))
