"""Cross-module AMR invariants (property-based)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.average_down import average_down
from repro.amr.box import Box
from repro.amr.boxarray import BoxArray, boxes_of
from repro.amr.distribution import DistributionMapping
from repro.amr.fillpatch import fill_coarse_patch
from repro.amr.geometry import Geometry
from repro.amr.interpolate import ConservativeLinearInterp, TrilinearInterp
from repro.amr.multifab import MultiFab
from repro.mpi.comm import Communicator


def two_level_setup(seed, nranks=2):
    rng = np.random.default_rng(seed)
    comm = Communicator(nranks, ranks_per_node=1)
    dom_c = Box((0, 0), (15, 15))
    ba_c = BoxArray.from_domain(dom_c, 8, 8)
    crse = MultiFab(ba_c, DistributionMapping.make(ba_c, nranks), 1, 2, comm)
    for i, fab in crse:
        fab.whole()[...] = rng.random(fab.whole().shape)
    ba_f = BoxArray([Box((8, 8), (23, 23))])
    fine = MultiFab(ba_f, DistributionMapping.make(ba_f, nranks), 1, 2, comm)
    geom_f = Geometry(dom_c.refine(2), (0.0, 0.0), (1.0, 1.0))
    return crse, fine, geom_f


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_conservative_interp_then_restrict_is_identity(seed):
    """average_down(fill_coarse_patch(crse)) == crse on covered cells.

    This is the defining property of a *conservative* interpolator: the
    paper notes its custom curvilinear interpolator lacks it, motivating
    the WENO-SYMBO conservative interpolation under development.
    """
    crse, fine, geom_f = two_level_setup(seed)
    before = {i: fab.valid().copy() for i, fab in crse}
    fill_coarse_patch(fine, crse, geom_f, 2, ConservativeLinearInterp())
    average_down(fine, crse, 2)
    for i, fab in crse:
        covered = fab.box.intersect(Box((4, 4), (11, 11)))
        if covered.is_empty():
            continue
        sl = covered.slices(relative_to=fab.box)
        np.testing.assert_allclose(
            fab.valid()[(slice(None),) + sl],
            before[i][(slice(None),) + sl],
            rtol=1e-12,
        )


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_trilinear_interp_is_not_conservative(seed):
    """The index-space trilinear interpolator violates the restriction
    identity on generic data (the conservation gap the paper concedes)."""
    crse, fine, geom_f = two_level_setup(seed)
    before = {i: fab.valid().copy() for i, fab in crse}
    fill_coarse_patch(fine, crse, geom_f, 2, TrilinearInterp())
    average_down(fine, crse, 2)
    max_dev = 0.0
    for i, fab in crse:
        covered = fab.box.intersect(Box((4, 4), (11, 11)))
        if covered.is_empty():
            continue
        sl = covered.slices(relative_to=fab.box)
        max_dev = max(max_dev, float(np.abs(
            fab.valid()[(slice(None),) + sl] - before[i][(slice(None),) + sl]
        ).max()))
    assert max_dev > 1e-12  # generic random data: strictly non-conservative


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_parallel_copy_matches_source_function(seed, nranks):
    """Redistribution between random layouts preserves per-cell values."""
    rng = np.random.default_rng(seed)
    comm = Communicator(nranks, ranks_per_node=2)
    dom = Box((0, 0), (31, 31))
    ms_src = int(rng.choice([8, 16, 32]))
    ms_dst = int(rng.choice([8, 16, 32]))
    ba_s = BoxArray.from_domain(dom, ms_src, 8)
    ba_d = BoxArray.from_domain(dom, ms_dst, 8)
    src = MultiFab(ba_s, DistributionMapping.make(ba_s, nranks), 1, 0, comm)
    dst = MultiFab(ba_d, DistributionMapping.make(ba_d, nranks), 1, 0, comm)

    def f(i, j):
        return np.sin(i * 0.37) + 3.0 * j

    for k, fab in src:
        b = fab.box
        ii = np.arange(b.lo[0], b.hi[0] + 1)[:, None]
        jj = np.arange(b.lo[1], b.hi[1] + 1)[None, :]
        fab.valid()[0] = f(ii, jj)
    dst.parallel_copy(src)
    for k, fab in dst:
        b = fab.box
        ii = np.arange(b.lo[0], b.hi[0] + 1)[:, None]
        jj = np.arange(b.lo[1], b.hi[1] + 1)[None, :]
        np.testing.assert_allclose(fab.valid()[0], f(ii, jj))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 28), st.integers(0, 28),
                          st.integers(1, 6), st.integers(1, 6)),
                min_size=1, max_size=6))
def test_complement_partitions_region(box_specs):
    """Complement pieces + covered overlaps partition any region."""
    boxes = []
    for (x, y, w, h) in box_specs:
        b = Box((x, y), (x + w - 1, y + h - 1))
        # keep disjoint: drop overlapping candidates
        if all(not b.intersects(e) for e in boxes):
            boxes.append(b)
    ba = BoxArray(boxes)
    region = Box((0, 0), (31, 31))
    comp = boxes_of(ba.complement(region)[0])
    covered = sum(ov.num_pts() for ov in boxes_of(ba.intersect(region)[2]))
    uncovered = sum(p.num_pts() for p in comp)
    assert covered + uncovered == region.num_pts()
    # complement pieces are disjoint and inside the region
    for i, p in enumerate(comp):
        assert region.contains(p)
        for q in comp[i + 1:]:
            assert not p.intersects(q)
        assert not len(ba.intersect(p)[1])
