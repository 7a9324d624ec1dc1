"""A remade level rebuilds only what changed, bit for bit.

``Crocco.remake_level`` copies the coordinate and metric rows of every box
equal to a box of the old level into the new level's storage, builds the
metrics of the other boxes in place per run of a batch, and interpolates
from coarse only
where no old fine cell exists.  The reference here is the recipe it replaced, kept
verbatim (as ``tests/amr/plan_oracle.py`` keeps the scalar plan
builders): recompute every box's coordinates and metrics, interpolate the
whole level from coarse, then ParallelCopy the old level over it.
"""

import weakref
from contextlib import closing

import numpy as np
import pytest

from repro.amr.fillpatch import fill_coarse_patch
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.kernels.batch import BATCH_CELLS, shape_groups
from repro.numerics.metrics import derivative_same_shape, write_metrics
from tests.numerics.test_stencils_metrics import cofactors

STEPS = 8


def reference_rows(coords, order=4):
    """One patch's metric rows ``(dim^2 + 1, *s)`` — ``m[d, j]``, then
    ``J`` — from its coordinates ``(dim, *s)`` one component and one
    direction at a time, ``J`` and ``m`` in cofactor form."""
    dim = coords.shape[0]
    s = coords.shape[1:]
    first = np.empty((dim, dim) + s)
    for j in range(dim):
        for d in range(dim):
            first[j, d] = derivative_same_shape(coords[j], axis=d, order=order)
    J, m = cofactors(first)
    return np.concatenate([m.reshape((dim * dim,) + s), J[None]])


class Reference(Crocco):
    """The remake as it was: everything rebuilt, everything interpolated
    (ghost cells, as in the remake, left to the level's next fill)."""

    def make_new_level_from_coarse(self, lev, ba, dm):
        self._build_level_storage(lev, ba, dm)
        self._fill_from_coarse(lev)

    def remake_level(self, lev, ba, dm):
        old_state = self.state[lev]
        self._clear_level_storage(lev)
        self._build_level_storage(lev, ba, dm)
        self._fill_from_coarse(lev)
        self.state[lev].parallel_copy(old_state)

    def _fill_from_coarse(self, lev):
        needs = self.interp.needs_coords
        fill_coarse_patch(
            self.state[lev], self.state[lev - 1], self.geoms[lev],
            self.ref_ratio_iv(), self.interp,
            crse_coords=self.coords[lev - 1] if needs else None,
            fine_coords=self.coords[lev] if needs else None,
            profiler=self.profiler)

    def _build_level_storage(self, lev, ba, dm, kept=None, rows=()):
        """Every box's coordinates computed afresh, and its metric rows
        one patch at a time."""
        assert not kept and not rows
        super()._build_level_storage(lev, ba, dm)
        if not self.case.curvilinear:
            return
        for i, fab in self.metrics[lev]:
            fab.data[...] = reference_rows(self.coords[lev].fab(i).data)


def churn(cls, **config):
    """Small boxes, rebuilt every step (the shape of ``dmr_churn_v21``)."""
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = cls(case, CroccoConfig(
        version="2.1", nranks=3, ranks_per_node=3, max_level=2,
        max_grid_size=16, blocking_factor=8, regrid_int=1,
        backend_target="device", **config))
    sim.initialize()
    return sim


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_levels(sim, ref, step):
    assert sim.finest_level == ref.finest_level
    for lev in range(sim.finest_level + 1):
        assert sim.box_arrays[lev] == ref.box_arrays[lev], (step, lev)
        assert ([b.ids for b in sim.batches[lev]]
                == [b.ids for b in ref.batches[lev]]), (step, lev)
        for i, fab in sim.state[lev]:
            where = (step, lev, i)
            assert same(fab.data, ref.state[lev].fab(i).data), where
            assert same(sim.coords[lev].fab(i).data,
                        ref.coords[lev].fab(i).data), where
            assert same(sim.metrics[lev].fab(i).data,
                        ref.metrics[lev].fab(i).data), where
        for got, want in zip(sim.batches[lev], ref.batches[lev]):
            assert same(got.metrics.jacobian(), want.metrics.jacobian())
            for d in range(got.metrics.dim):
                assert same(got.metrics.m(d), want.metrics.m(d)), (step, lev)


@pytest.mark.parametrize("config", [
    {"interpolator": "trilinear"}, {"interpolator": "curvilinear"},
    {"interpolator": "conservative"}, {"interpolator": "weno"},
    {"coords_source": "file"}], ids=lambda c: "-".join(c.values()))
def test_remake_equals_the_rebuild_everything_recipe(config):
    with closing(churn(Crocco, **config)) as sim, \
            closing(churn(Reference, **config)) as ref:
        assert_same_levels(sim, ref, -1)
        kept = new = 0
        for step in range(STEPS):
            sim.step()
            ref.step()
            assert_same_levels(sim, ref, step)
            assert sim.dt_history == ref.dt_history
            kept += sim.step_boxes_kept
            new += sim.step_boxes_new
        assert sim.regrid_count == ref.regrid_count == STEPS
        assert kept > 0 and new > 0, "the run must both keep and build boxes"


def smooth_coords(shape, seed):
    """Coordinates of a smooth, orientation-preserving mapping over a grid
    of ``shape``, shifted per patch: ``(dim, *shape)``."""
    rng = np.random.default_rng(seed)
    xi = np.indices(shape).astype(float) + rng.integers(0, 50, len(shape))[
        (slice(None),) + (None,) * len(shape)]
    wave = np.sin(0.3 * xi.sum(axis=0))
    return np.stack([0.1 * x + 0.02 * (d + 1) * wave
                     for d, x in enumerate(xi)])


@pytest.mark.parametrize("shape, n", [((24, 24), 7), ((12, 8, 8), 5)])
def test_grouped_metrics_equal_per_box_metrics(shape, n):
    """Per group cut at BATCH_CELLS (2-D: groups of 3, 3 and 1 patches of
    576 cells; 3-D: 2, 2 and 1 of 768), each patch's metric rows, written
    in place for the whole group or for a run of it, are the bits of its
    own one-patch build."""
    coords = {i: smooth_coords(shape, i) for i in range(n)}
    parts = shape_groups({i: c.shape[1:] for i, c in coords.items()})
    step = BATCH_CELLS // int(np.prod(shape))
    assert [len(p) for p in parts] == [step] * (n // step) + [n % step]
    nrows = len(shape) ** 2 + 1
    for part in parts:
        group = np.stack([coords[i] for i in part], axis=1)
        whole = np.empty((nrows,) + group.shape[1:])
        write_metrics(group, whole)
        tail = np.zeros_like(whole)
        write_metrics(group[:, 1:], tail[:, 1:])
        for b, i in enumerate(part):
            want = reference_rows(coords[i])
            assert same(whole[:, b], want)
            assert b == 0 or same(tail[:, b], want)


def level_arrays(sim, lev):
    """Every array of level ``lev``'s storage: the state, ``du``,
    coordinate and metric buffers and each batch's metrics."""
    return [sim.state[lev].buffer, sim.du[lev].buffer, sim.coords[lev].buffer,
            sim.metrics[lev].buffer,
            *(a for b in sim.batches[lev]
              for a in (b.metrics.arr, b.metrics._m, b.metrics._J))]


def test_a_kept_box_holds_no_replaced_stack_alive():
    """A surviving box is copied into the new level's storage: once the
    level is replaced, none of its buffers or batch metrics is alive,
    even where a box of a multi-box batch was kept."""
    with closing(churn(Crocco)) as sim:
        sim.step()
        checked = 0
        for _ in range(STEPS):
            lev = sim.finest_level
            refs = [weakref.ref(a) for a in level_arrays(sim, lev)]
            multi = {sim.state[lev].ba[i] for b in sim.batches[lev]
                     if len(b.ids) > 1 for i in b.ids}
            old_state = sim.state[lev]
            sim.step()
            if sim.state[lev] is old_state:
                continue
            del old_state
            checked += sum(box in multi for box in sim.state[lev].ba)
            assert not [r for r in refs if r() is not None], (
                "a replaced level's storage is still alive")
        assert checked > 0, "no step kept a box of a multi-box batch"


def plan_deps(sim):
    """Every object a cached communication plan of the run names."""
    return [dep for store in (sim.state, sim.du, sim.coords)
            for mf in store.values() for plan in mf._plans.values()
            for dep in plan.deps]


def test_a_remade_level_shares_no_memory_with_the_one_it_replaced():
    """The stale-storage trap: after every remake of a churning run, no
    state, ``du``, coordinate or metrics array of the new level shares
    memory with the level it replaced, and every kept box is bitwise what
    it was (its valid state after the copy-in, its coordinates, metrics).
    No plan cached on the new level names the replaced one (the one-shot
    copy of the old data caches none), and none anywhere once the step
    has run."""
    with closing(churn(Crocco)) as sim:
        remakes = kept = 0
        inner = sim.remake_level
        replaced = []

        def remake(lev, ba, dm):
            nonlocal remakes, kept
            old = {k: getattr(sim, k).get(lev)
                   for k in ("state", "coords", "metrics")}
            if old["state"] is not None:
                replaced.extend([old["state"], old["coords"], old["metrics"],
                                 old["state"].ba, old["state"].dm])
            old_arrays = level_arrays(sim, lev) if old["state"] else []
            before = {} if old["state"] is None else {
                old["state"].ba[j]: (old["state"].fab(j).valid().copy(),
                                     old["coords"].fab(j).data.copy(),
                                     old["metrics"].fab(j).data.copy())
                for j in range(len(old["state"].ba))}
            inner(lev, ba, dm)
            remakes += 1
            for dep in (dep for store in (sim.state, sim.du, sim.coords,
                                          sim.metrics)
                        for plan in store[lev]._plans.values()
                        for dep in plan.deps):
                assert not any(dep is r for r in replaced)
            for a in level_arrays(sim, lev):
                assert not any(np.shares_memory(a, b) for b in old_arrays)
            for i, fab in sim.state[lev]:
                if fab.box not in before:
                    continue
                kept += 1
                valid, coords, metrics = before[fab.box]
                assert same(fab.valid(), valid)
                assert same(sim.coords[lev].fab(i).data, coords)
                assert same(sim.metrics[lev].fab(i).data, metrics)

        sim.remake_level = remake
        for _ in range(STEPS):
            sim.step()
            assert not [d for d in plan_deps(sim)
                        if any(d is r for r in replaced)]
            del replaced[:]
        assert remakes >= STEPS and kept > 0


def test_a_remake_that_keeps_every_box_fills_nothing(monkeypatch):
    """Every box survives: coordinates and metrics are the old ones, copied
    into the new storage, the valid data is the old level's, and no coarse
    fill runs."""
    from repro.backend import use_backend
    from repro.core import crocco

    with closing(churn(Crocco)) as sim:
        sim.step()
        fills = []
        monkeypatch.setattr(crocco, "fill_coarse_patch",
                            lambda *a, **k: fills.append(a))
        ba, dm = sim.box_arrays[1], sim.dmaps[1]
        old = {i: (fab.valid().copy(), sim.coords[1].fab(i).data,
                   sim.metrics[1].fab(i).data) for i, fab in sim.state[1]}
        old_buffers = sim.coords[1].buffer, sim.metrics[1].buffer
        counts = (sim.step_boxes_kept, sim.step_boxes_new)
        with use_backend(sim.exec_backend):
            sim.remake_level(1, ba, dm)
        assert fills == []
        assert (sim.step_boxes_kept, sim.step_boxes_new) == (
            counts[0] + len(ba), counts[1])
        for new, was in zip((sim.coords[1], sim.metrics[1]), old_buffers):
            assert not np.shares_memory(new.buffer, was)
        for i, fab in sim.state[1]:
            valid, coords, metrics = old[i]
            assert same(fab.valid(), valid)
            assert same(sim.coords[1].fab(i).data, coords)
            assert same(sim.metrics[1].fab(i).data, metrics)


def test_metric_rows_of_kept_and_new_boxes_are_their_own_build():
    """After every remake of a churning run, each box's metric rows — the
    ones a kept box copied in and the ones a new box built in place — are
    the bits of its own one-patch build, and a curvilinear level stores
    nothing else: its metric MultiFab has ``dim^2 + 1`` components and its
    batches' metrics are views of its group arrays."""
    with closing(churn(Crocco)) as sim:
        seen = {True: 0, False: 0}
        for _ in range(4):
            had = {lev: {box.tobytes() for box in sim.box_arrays[lev].lohi}
                   for lev in range(1, sim.finest_level + 1)}
            sim.step()
            for lev in range(1, sim.finest_level + 1):
                metrics = sim.metrics[lev]
                assert metrics.ncomp == sim.case.layout.dim ** 2 + 1
                for batch in sim.batches[lev]:
                    assert batch.metrics.arr is metrics.arrays[batch.group]
                for i, box in enumerate(sim.box_arrays[lev].lohi):
                    want = reference_rows(sim.coords[lev].fab(i).data)
                    assert same(metrics.fab(i).data, want), (lev, i)
                    seen[box.tobytes() in had.get(lev, ())] += 1
        assert seen[True] > 0 and seen[False] > 0
