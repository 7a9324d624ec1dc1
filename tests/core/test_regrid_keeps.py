"""A remade level rebuilds only what changed, bit for bit.

``Crocco.remake_level`` keeps the coordinates and metrics of every box
equal to a box of the old level, builds the metrics of the other boxes per
equal-shape group, and interpolates from coarse only where no old fine
cell exists.  The reference here is the recipe it replaced, kept
verbatim (as ``tests/amr/plan_oracle.py`` keeps the scalar plan
builders): recompute every box's coordinates and metrics, interpolate the
whole level from coarse, then ParallelCopy the old level over it.
"""

import weakref
from contextlib import closing

import numpy as np
import pytest

from repro.amr.fillpatch import fill_coarse_patch
from repro.amr.multifab import MultiFab
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.kernels.batch import BATCH_CELLS, make_batches, shape_groups
from repro.numerics.metrics import (CartesianMetrics, CurvilinearMetrics,
                                    derivative_same_shape)

STEPS = 8


def reference_metrics(coords, order=4):
    """``CurvilinearMetrics.from_coordinates`` as it was, one patch at a
    time: ``(first, second, J, m)``."""
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
    T = np.moveaxis(first.reshape(dim, dim, -1), -1, 0)
    J = np.linalg.det(T)
    Tinv = np.linalg.inv(T)
    m = np.ascontiguousarray(
        (J[:, None, None] * Tinv).transpose(1, 2, 0)).reshape((dim, dim) + s)
    return first, second, J.reshape(s), m


class Reference(Crocco):
    """The remake as it was: everything rebuilt, everything interpolated."""

    def make_new_level_from_coarse(self, lev, ba, dm):
        self._build_level_storage(lev, ba, dm)
        self._fill_from_coarse(lev)
        self._bc_fill(lev)

    def remake_level(self, lev, ba, dm):
        old_state = self.state[lev]
        self._clear_level_storage(lev)
        self._build_level_storage(lev, ba, dm)
        self._fill_from_coarse(lev)
        self.state[lev].parallel_copy(old_state)
        self._bc_fill(lev)

    def _fill_from_coarse(self, lev):
        needs = self.interp.needs_coords
        fill_coarse_patch(
            self.state[lev], self.state[lev - 1], self.geoms[lev],
            self.ref_ratio_iv(), self.interp,
            crse_coords=self.coords[lev - 1] if needs else None,
            fine_coords=self.coords[lev] if needs else None,
            profiler=self.profiler)

    def _build_level_storage(self, lev, ba, dm, kept=None):
        assert not kept
        lay = self.case.layout
        self.state[lev] = MultiFab(ba, dm, lay.ncons, self.ng, self.comm)
        self.du[lev] = MultiFab(ba, dm, lay.ncons, 0, self.comm)
        coords = MultiFab(ba, dm, lay.dim, self.ng, self.comm)
        geom = self.geoms[lev]
        for i, fab in coords:
            fab.whole()[...] = self._get_coords(geom, fab.grown_box())
        self.coords[lev] = coords
        self.metrics[lev] = {}
        for i, fab in coords:
            if self.case.curvilinear:
                self.metrics[lev][i] = CurvilinearMetrics(
                    *reference_metrics(fab.whole()))
            else:
                self.metrics[lev][i] = CartesianMetrics(self.case.cartesian_dx(geom))
        self.batches[lev] = make_batches(self.state[lev], self.metrics[lev])
        per_rank = [0] * self.comm.nranks
        for i, fab in self.state[lev]:
            per_rank[self.state[lev].dm[i]] += (
                fab.nbytes() + self.du[lev].fab(i).nbytes()
                + coords.fab(i).nbytes())
        for rank, nbytes in enumerate(per_rank):
            self.exec_backend.reserve(nbytes, rank)
        self._residency[lev] = per_rank


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


def test_a_kept_box_holds_no_replaced_stack_alive():
    """A surviving box keeps its metrics object, but not the stacked
    ``m`` / ``J`` of the batch it belonged to: once the level is replaced,
    none of its stacks' arrays is alive."""
    with closing(churn(Crocco)) as sim:
        sim.step()
        checked = 0
        for _ in range(STEPS):
            lev = sim.finest_level
            stacked = [b for b in sim.batches[lev] if len(b.ids) > 1]
            refs = [weakref.ref(a) for b in stacked
                    for a in (b.metrics._m, b.metrics._J)]
            members = [weakref.ref(sim.metrics[lev][i])
                       for b in stacked for i in b.ids]
            old_metrics = sim.metrics[lev]
            del stacked
            sim.step()
            if sim.metrics[lev] is old_metrics:
                continue
            del old_metrics
            alive = [r() for r in members if r() is not None]
            checked += sum(any(m is a for a in alive)
                           for m in sim.metrics[lev].values())
            del alive
            assert not [r for r in refs if r() is not None], (
                "a replaced level's stacked metrics are still alive")
        assert checked > 0, "no step kept a box of a multi-box batch"


def test_a_remake_that_keeps_every_box_fills_nothing(monkeypatch):
    """Every box survives: coordinates and metrics are the old objects,
    the valid data is the old level's, and no coarse fill runs."""
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
        counts = (sim.step_boxes_kept, sim.step_boxes_new)
        with use_backend(sim.exec_backend):
            sim.remake_level(1, ba, dm)
        assert fills == []
        assert (sim.step_boxes_kept, sim.step_boxes_new) == (
            counts[0] + len(ba), counts[1])
        for i, fab in sim.state[1]:
            valid, coords, metrics = old[i]
            assert same(fab.valid(), valid)
            assert sim.coords[1].fab(i).data is coords
            assert sim.metrics[1][i] is metrics
