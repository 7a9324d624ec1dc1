"""The batched box algebra against the scalar one it replaced.

``tests/amr/plan_oracle.py`` keeps the pre-array metadata producers —
one ``Box`` per overlap, one query per fab.  On generated layouts (2-D and
3-D, ghost widths 0-3, ratios 2 and 4, periodic or not, no box / one box /
many) the batched primitives of ``repro.amr.boxarray`` must give the same
boxes in the same order, and every plan built from them must equal the
oracle's fab for fab: copies as index arrays, launch points, messages.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.amr import average_down, boundary, boxarray, fillpatch, parallelcopy
from repro.amr.amrcore import AmrConfig, AmrCore
from repro.amr.box import Box
from repro.amr.boxarray import BoxArray, boxes_of, lohi_of
from repro.amr.distribution import DistributionMapping
from repro.amr.geometry import Geometry
from repro.amr.interpolate import TrilinearInterp
from repro.amr.intvect import IntVect
from repro.mpi.comm import Communicator
from tests.amr import plan_oracle as oracle
from tests.amr.test_substrate_oracle import INTERPS, TwoLevels, layouts, make_mf
from tests.conftest import no_overlaps


@st.composite
def box_lists(draw, max_boxes=12):
    """Any boxes at all (they may overlap), N = 0, 1 or many, and a list
    of query regions of the same dimension — some of them empty."""
    dim = draw(st.sampled_from([2, 3]))

    def box(empty_ok):
        lo = [draw(st.integers(-12, 12)) for _ in range(dim)]
        size = [draw(st.integers(0 if empty_ok else 1, 9)) for _ in range(dim)]
        return Box(lo, [l + s - 1 for l, s in zip(lo, size)])

    boxes = [box(False) for _ in range(draw(st.sampled_from([0, 1, 2, 5, max_boxes])))]
    regions = [box(True) for _ in range(draw(st.integers(0, 6)))]
    return dim, boxes, regions


def as_boxes(lohi):
    return boxes_of(np.asarray(lohi))


# -- primitives --------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(box_lists())
def test_intersect_and_complement_match_the_box_chain(drawn):
    dim, boxes, regions = drawn
    ba = BoxArray(boxes)
    q, j, overlap = ba.intersect(lohi_of(regions, dim))
    expected = [(n, i, o) for n, reg in enumerate(regions)
                for i, o in oracle.intersections(boxes, reg)]
    assert list(zip(q.tolist(), j.tolist(), as_boxes(overlap))) == expected
    pieces, owner = ba.complement(lohi_of(regions, dim))
    expected = [(n, p) for n, reg in enumerate(regions)
                for p in oracle.complement_in(boxes, reg)]
    assert list(zip(owner.tolist(), as_boxes(pieces))) == expected
    for reg in regions:   # the scalar API edge
        assert ba.contains(reg) == (not oracle.complement_in(boxes, reg))


@settings(max_examples=80, deadline=None)
@given(box_lists())
def test_diff_subtract_and_disjoint_match_box_diff(drawn):
    dim, boxes, regions = drawn
    for reg in regions:
        pieces, src = boxarray.diff(lohi_of(boxes, dim), lohi_of([reg])[0])
        expected = [(k, p) for k, b in enumerate(boxes)
                    for p in oracle.diff(b, reg)]
        assert list(zip(src.tolist(), as_boxes(pieces))) == expected
    subtracted = boxarray.subtract(lohi_of(regions, dim), lohi_of(boxes, dim))
    expected = [p for reg in regions for p in oracle._dedup_diffs(reg, boxes)]
    assert as_boxes(subtracted) == expected
    assert as_boxes(boxarray.disjoint(lohi_of(boxes, dim))) == oracle.disjoint(boxes)


@settings(max_examples=60, deadline=None)
@given(box_lists(), st.integers(0, 3), st.sampled_from([2, 4]))
def test_elementwise_ops_match_box_methods(drawn, n, ratio):
    dim, boxes, _ = drawn
    lohi = lohi_of(boxes, dim)
    shift = IntVect(*range(-1, dim - 1))
    for op, scalar in [
            (boxarray.grow(lohi, n), [b.grow(n) for b in boxes]),
            (lohi + shift.tup(), [b.shift(shift) for b in boxes]),
            (boxarray.coarsen(lohi, ratio), [b.coarsen(ratio) for b in boxes]),
            (boxarray.refine(lohi, ratio), [b.refine(ratio) for b in boxes])]:
        assert as_boxes(op) == scalar
    assert boxarray.num_pts(lohi).tolist() == [b.num_pts() for b in boxes]
    grown = boxarray.grow(lohi, n)
    assert boxarray.slices(lohi, grown) == [
        b.slices(relative_to=b.grow(n)) for b in boxes]
    # every cell of every box, and where it sits in the grown box's array
    k, idx = boxarray.cells(lohi)
    flat = boxarray.flat_index(idx, grown[k])
    expected = [oracle._cells(b, b.grow(n)) for b in boxes]
    assert flat.tolist() == [c for cells in expected for c in cells.tolist()]
    assert k.tolist() == [i for i, c in enumerate(expected) for _ in c]
    assert idx.tolist() == [
        list(i) for b in boxes
        for i in itertools.product(*map(range, b.lo, (h + 1 for h in b.hi)))]
    ba = BoxArray(lohi)
    assert ba == BoxArray(boxes) and list(ba) == boxes
    assert ba.num_pts() == sum(b.num_pts() for b in boxes)
    assert ba.centers().tolist() == [
        [l + h for l, h in zip(b.lo, b.hi)] for b in boxes]


def test_a_query_of_another_dimension_is_an_error():
    """It used to zip-truncate: a 2-D region met no box of a 3-D array,
    and the complement returned it whole, as 'uncovered'."""
    ba = BoxArray.from_domain(Box((0, 0, 0), (15, 15, 15)), 8, 8)
    flat = Box((0, 0), (7, 7))
    for query in (ba.contains, ba.intersect, ba.complement):
        with pytest.raises(ValueError, match="expected dim 3, got 2"):
            query(flat)
    empty = BoxArray([])
    assert empty.intersect(flat)[1].tolist() == []
    assert as_boxes(empty.complement(flat)[0]) == [flat]
    assert not empty.contains(flat)
    assert no_overlaps(empty) and empty.num_pts() == 0


def test_the_index_finds_what_a_scan_finds_on_many_boxes():
    """3,500 boxes of mixed sizes against regions from one cell to the
    whole domain: the binned index and a scan over every box agree."""
    rng = np.random.default_rng(7)
    domain = Box((0, 0, 0), (127, 127, 127))
    ba = BoxArray.from_domain(domain, 8, 8)
    lohi = ba.lohi[rng.permutation(len(ba))[:3000]]
    lohi = np.concatenate([lohi, boxarray.coarsen(lohi[:500], 4) + 200])
    ba = BoxArray(lohi)
    lo = rng.integers(-10, 240, size=(200, 3))
    regions = np.stack([lo, lo + rng.integers(0, 40, size=(200, 1))], axis=1)
    regions[0] = lohi_of([domain])[0]
    q, j, overlap = ba.intersect(regions)
    cut = boxarray.meet(regions[:, None], lohi[None])
    hit = boxarray.nonempty(cut)
    assert (np.stack([q, j]) == np.stack(np.nonzero(hit))).all()
    assert (overlap == cut[hit]).all()


# -- plans ---------------------------------------------------------------------------

def same_index(a, b):
    return len(a) == len(b) and all(
        x == y if isinstance(x, slice) else np.array_equal(x, y)
        for x, y in zip(a, b))


def assert_same_plan(got, expected):
    assert list(got.fabs) == list(expected.fabs)
    for i, exp in expected.fabs.items():
        fp = got.fabs[i]
        assert (fp.dst, fp.rank, fp.npoints) == (exp.dst, exp.rank, exp.npoints)
        assert list(fp.messages) == list(exp.messages)
        assert len(fp.copies) == len(exp.copies)
        for (j, sidx, didx), (ej, esidx, edidx) in zip(fp.copies, exp.copies):
            assert j == ej and same_index(sidx, esidx) and same_index(didx, edidx)


def assert_same_fill_plan(got, expected):
    assert_same_plan(got, expected)
    assert (got.coords is None) == (expected.coords is None)
    if expected.coords is not None:
        assert_same_plan(got.coords, expected.coords)
    for i, exp in expected.fabs.items():
        fp = got.fabs[i]
        assert (fp.ncells, fp.nfilled, fp.regions) == (
            exp.ncells, exp.nfilled, exp.regions)
        for a, b in ((fp.idx, exp.idx), (fp.w, exp.w)):
            assert (a is None) == (b is None)
            assert a is None or (a.shape == b.shape and (a == b).all())
        assert (fp.dst_cells is None) == (exp.dst_cells is None)
        assert exp.dst_cells is None or same_index(fp.dst_cells, exp.dst_cells)


@settings(max_examples=60, deadline=None)
@given(layouts(), st.booleans())
def test_box_copy_plans_equal_the_oracle(lay, fill_ghosts):
    comm = Communicator(lay["nranks"], ranks_per_node=2)
    rng = np.random.default_rng(lay["seed"])
    geom = Geometry(lay["domain"], [0.0] * lay["dim"], [1.0] * lay["dim"],
                    lay["periodic"])
    tiling = make_mf(lay["tiling"], lay["ngrow2"], comm, rng)
    patches = make_mf(lay["patches"], lay["ngrow"], comm, rng)
    for mf in (tiling, patches):
        for g in (geom, None):
            assert_same_plan(boundary._build_plan(mf, g),
                             oracle.fill_boundary_plan(mf, g))
            pieces, fab = boundary.boundary_regions(mf, g)
            for i, _ in mf:
                assert as_boxes(pieces[fab == i]) == oracle.boundary_regions(
                    mf, i, g)
    for src, dst in ((tiling, patches), (patches, tiling)):
        assert_same_plan(
            parallelcopy.copy_plan(dst, src, 1, fill_ghosts),
            oracle.copy_plan(dst, src, 1, fill_ghosts))
    r = IntVect.filled(lay["dim"], lay["ratio"])
    ba, dm = lay["patches"]
    fine = make_mf((ba.refine(r), dm), lay["ngrow2"], comm, rng)
    assert_same_plan(average_down._build_plan(fine, tiling, r),
                     oracle.average_down_plan(fine, tiling, r))


def fixed_layout(sizes, periodic, patches):
    """A layout of :func:`layouts`' shape: a 2x2(x2) coarse tiling and the
    patches (boxes of the coarse index space) the fine level refines."""
    domain = Box.from_extent([0] * len(sizes), sizes)
    tiling = BoxArray.from_domain(domain, [n // 2 for n in sizes])
    patches = BoxArray([Box(lo, hi) for lo, hi in patches])
    return {"dim": len(sizes), "domain": domain, "nranks": 3,
            "periodic": periodic, "ratio": 2, "ngrow": 2, "ngrow2": 1,
            "tiling": (tiling, DistributionMapping.make(tiling, 3)),
            "patches": (patches, DistributionMapping.make(patches, 3)),
            "seed": 7}


#: a patch at a face, one at an edge of the domain (2-D: at a corner), and
#: one inside, each refined by 2
PERIODIC_2D = fixed_layout((16, 12), (True, False),
                           [((0, 2), (5, 7)), ((10, 0), (15, 4)), ((7, 6), (9, 9))])
LAYOUT_3D = fixed_layout((6, 6, 4), (False, True, True),
                         [((0, 0, 0), (2, 2, 1)), ((3, 2, 1), (5, 5, 3))])


@settings(max_examples=60, deadline=None)
@given(layouts(), st.sampled_from(sorted(INTERPS)), st.booleans())
@example(PERIODIC_2D, "curvilinear", False)
@example(PERIODIC_2D, "trilinear", True)
@example(LAYOUT_3D, "curvilinear", False)
@example(LAYOUT_3D, "trilinear", False)
def test_fill_plans_equal_the_oracle(lay, kind, whole):
    comm = Communicator(lay["nranks"], ranks_per_node=2)
    lv = TwoLevels(lay, kind, comm, np.random.default_rng(lay["seed"]))
    args = (lv.fine, lv.crse, lv.geom_f, IntVect.filled(lay["dim"], lay["ratio"]),
            lv.interp, lv.crse_coords, lv.fine_coords)
    # the whole level: every valid box, each owned by its own fab
    pieces = (lv.fine.ba.lohi, np.arange(len(lv.fine))) if whole else None
    assert_same_fill_plan(fillpatch.build_fill_plan(*args, pieces),
                          oracle.build_fill_plan(*args, whole))


@settings(max_examples=60, deadline=None)
@given(layouts(), st.integers(0, 3))
def test_clip_to_coverage_equals_the_oracle(lay, n_proper):
    """The proper-nesting clip of new grids (here: the scattered patches)
    against a level that covers part of the domain (a sub-tiling)."""
    tiling = lay["tiling"][0]
    cov = BoxArray(list(tiling)[::2])
    amr = AmrCore(Geometry(lay["domain"], [0.0] * lay["dim"], [1.0] * lay["dim"]),
                  AmrConfig(max_level=2, n_proper=n_proper))
    amr.box_arrays[1] = cov
    amr.geoms[1] = amr.geoms[0]
    got = amr._clip_to_coverage(lay["patches"][0], 1)
    expected = oracle._clip_to_coverage(cov, lay["domain"], n_proper,
                                        lay["patches"][0])
    assert got == expected and list(got) == list(expected)


@settings(max_examples=60, deadline=None)
@given(box_lists(max_boxes=3), st.sampled_from([2, 4]))
def test_trilinear_stencil_equals_the_corner_loop(drawn, ratio):
    """One array pass over the cells of every box gives, box by box, what
    the per-piece corner loop gives."""
    dim, boxes, _ = drawn
    lohi = lohi_of(boxes, dim)
    k, at = boxarray.cells(lohi)
    idx, w = TrilinearInterp().stencil(
        k, at, IntVect.filled(dim, ratio),
        boxarray.grow(boxarray.coarsen(lohi, ratio), 1))
    assert idx.shape == w.shape == (1 << dim, len(k))
    for n, fine in enumerate(boxes):
        eidx, ew = oracle.trilinear_stencil(fine, ratio,
                                            fine.coarsen(ratio).grow(1))
        assert (idx[:, k == n] == eidx).all() and (w[:, k == n] == ew).all()
