"""A remade level rebuilds only what changed, bit for bit.

``Crocco.remake_level`` copies the coordinates and metrics of every box
equal to a box of the old level into the new level's storage, builds the
metrics of the other boxes per batch, and interpolates from coarse only
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
from repro.numerics.metrics import (CurvilinearMetrics, StackedMetrics,
                                    derivative_same_shape)
from tests.numerics.test_stencils_metrics import cofactors

STEPS = 8


def reference_metrics(coords, order=4):
    """``CurvilinearMetrics.from_coordinates`` one patch at a time, ``J``
    and ``m`` in cofactor form: ``(first, second, J, m)``."""
    dim = coords.shape[0]
    s = coords.shape[1:]
    first = np.empty((dim, dim) + s)
    for j in range(dim):
        for d in range(dim):
            first[j, d] = derivative_same_shape(coords[j], axis=d, order=order)
    pairs = [(d, e) for d in range(dim) for e in range(d, dim)]
    second = np.empty((dim, len(pairs)) + s)
    for j in range(dim):
        for k, (d, e) in enumerate(pairs):
            second[j, k] = derivative_same_shape(first[j, d], axis=e, order=order)
    J, m = cofactors(first)
    return first, second, J, m


def reference_curvilinear(coords):
    """The metrics of one patch as they were built, ``second`` eagerly."""
    first, second, J, m = reference_metrics(coords)
    metrics = CurvilinearMetrics(first, J, m)
    metrics._second = second
    return metrics


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

    def _build_level_storage(self, lev, ba, dm, kept=None):
        """Every box's coordinates computed afresh, and its metrics one
        patch at a time."""
        assert not kept
        super()._build_level_storage(lev, ba, dm)
        if not self.case.curvilinear:
            return
        for batch in self.batches[lev]:
            batch.metrics = StackedMetrics([
                reference_curvilinear(self.coords[lev].fab(i).data)
                for i in batch.ids])
            self.metrics[lev].update(
                (i, batch.metrics.member(b)) for b, i in enumerate(batch.ids))


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
            got, want = sim.metrics[lev][i], ref.metrics[lev][i]
            assert same(got.first, want.first), where
            assert same(got.second, want.second), where
            assert same(got.jacobian(), want.jacobian()), where
            for d in range(got.dim):
                assert same(got.m(d), want.m(d)), where


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
    576 cells; 3-D: 2, 2 and 1 of 768), each patch's metrics are the bits
    of its own one-patch build."""
    coords = {i: smooth_coords(shape, i) for i in range(n)}
    parts = shape_groups({i: c.shape[1:] for i, c in coords.items()})
    step = BATCH_CELLS // int(np.prod(shape))
    assert [len(p) for p in parts] == [step] * (n // step) + [n % step]
    for part in parts:
        got = CurvilinearMetrics.of_patches([coords[i] for i in part])
        for i, mets in zip(part, got):
            first, second, J, m = reference_metrics(coords[i])
            assert same(mets.first, first) and same(mets.second, second)
            assert same(mets.jacobian(), J)
            assert all(same(mets.m(d), m[d]) for d in range(len(shape)))
            single = CurvilinearMetrics.from_coordinates(coords[i])
            assert same(single.jacobian(), J) and same(single.first, first)


def level_arrays(sim, lev):
    """Every array of level ``lev``'s storage: the state, ``du`` and
    coordinate buffers and each batch's stacked metrics."""
    return [sim.state[lev].buffer, sim.du[lev].buffer, sim.coords[lev].buffer,
            *(a for b in sim.batches[lev]
              for a in (b.metrics._m, b.metrics._J))]


def test_a_kept_box_holds_no_replaced_stack_alive():
    """A surviving box is copied into the new level's storage: once the
    level is replaced, none of its buffers or stacked metrics is alive,
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
            old = {k: getattr(sim, k).get(lev) for k in ("state", "coords")}
            if old["state"] is not None:
                replaced.extend([old["state"], old["coords"],
                                 old["state"].ba, old["state"].dm])
            old_arrays = level_arrays(sim, lev) if old["state"] else []
            before = {} if old["state"] is None else {
                old["state"].ba[j]: (old["state"].fab(j).valid().copy(),
                                     old["coords"].fab(j).data.copy(),
                                     sim.metrics[lev][j])
                for j in range(len(old["state"].ba))}
            inner(lev, ba, dm)
            remakes += 1
            for dep in (dep for store in (sim.state, sim.du, sim.coords)
                        for plan in store[lev]._plans.values()
                        for dep in plan.deps):
                assert not any(dep is r for r in replaced)
            new_arrays = level_arrays(sim, lev) + [
                a for m in sim.metrics[lev].values() if hasattr(m, "first")
                for a in (m.first, m.second, m._m, m._J)]
            for a in new_arrays:
                assert not any(np.shares_memory(a, b) for b in old_arrays)
                for valid, coords, metrics in before.values():
                    assert not np.shares_memory(a, metrics.jacobian())
            for i, fab in sim.state[lev]:
                if fab.box not in before:
                    continue
                kept += 1
                valid, coords, metrics = before[fab.box]
                got = sim.metrics[lev][i]
                assert same(fab.valid(), valid)
                assert same(sim.coords[lev].fab(i).data, coords)
                assert got is not metrics
                for a, b in ((got.first, metrics.first), (got.second, metrics.second),
                             (got.jacobian(), metrics.jacobian())):
                    assert same(a, b) and not np.shares_memory(a, b)

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
                   sim.metrics[1][i]) for i, fab in sim.state[1]}
        old_buffer = sim.coords[1].buffer
        counts = (sim.step_boxes_kept, sim.step_boxes_new)
        with use_backend(sim.exec_backend):
            sim.remake_level(1, ba, dm)
        assert fills == []
        assert (sim.step_boxes_kept, sim.step_boxes_new) == (
            counts[0] + len(ba), counts[1])
        assert not np.shares_memory(sim.coords[1].buffer, old_buffer)
        for i, fab in sim.state[1]:
            valid, coords, metrics = old[i]
            assert same(fab.valid(), valid)
            assert same(sim.coords[1].fab(i).data, coords)
            got = sim.metrics[1][i]
            assert same(got.jacobian(), metrics.jacobian())
            assert all(same(got.m(d), metrics.m(d)) for d in range(got.dim))


def test_second_metrics_are_built_on_read_and_no_step_reads_them(monkeypatch):
    """The second-order metrics a box computes when first asked for are
    the bits of the eager per-patch build, on kept and new boxes after
    every remake; and a churning run steps with ``second`` patched to
    raise: no step reads them."""
    with closing(churn(Crocco)) as sim:
        seen = {True: 0, False: 0}
        for _ in range(4):
            had = {lev: {box.tobytes() for box in sim.box_arrays[lev].lohi}
                   for lev in range(1, sim.finest_level + 1)}
            sim.step()
            for lev in range(1, sim.finest_level + 1):
                for i, box in enumerate(sim.box_arrays[lev].lohi):
                    want = reference_metrics(sim.coords[lev].fab(i).data)[1]
                    assert same(sim.metrics[lev][i].second, want), (lev, i)
                    seen[box.tobytes() in had.get(lev, ())] += 1
        assert seen[True] > 0 and seen[False] > 0

    def no_read(self):
        raise AssertionError("a step read the second-order metrics")

    monkeypatch.setattr(CurvilinearMetrics, "second", property(no_read))
    with closing(churn(Crocco)) as sim:
        for _ in range(4):
            sim.step()
        assert sim.regrid_count == 4
