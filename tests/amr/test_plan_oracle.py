"""The batched box algebra against the scalar one it replaced.

``tests/amr/plan_oracle.py`` keeps the pre-array metadata producers —
one ``Box`` per overlap, one query per fab — and the per-copy executor.
On generated layouts (2-D and 3-D, ghost widths 0-3, ratios 2 and 4,
periodic or not, no box / one box / many) the batched primitives of
``repro.amr.boxarray`` must give the same boxes in the same order; every
plan built from them must charge what the oracle's does (launch points
and messages per owning rank); and running it through the flat executor (one ``np.take`` /
``np.put`` per level) must leave bitwise the data, and record exactly the
ledger messages, that the oracle's plan run one copy at a time does.
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
from repro.amr.interp_weno import WenoInterp
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

def shares_of(fabs, points=lambda fp: fp.npoints, messages=True):
    """The oracle's per-fab plans as the plan's per-rank launches: per
    owning rank, in order of its first fab, the points and the messages of
    its fabs."""
    out = {}
    for fp in fabs.values():
        share = out.setdefault(fp.rank, [fp.rank, 0, []])
        share[1] += points(fp)
        share[2].extend(fp.messages if messages else ())
    return [tuple(share) for share in out.values()]


def per_rank(shares, messages=()):
    """A plan's launches as ``shares_of`` lists them, each with the
    messages its rank receives."""
    return [(spec.rank, n, [m for m in messages if m.dst == spec.rank])
            for n, spec in shares]


def assert_same_plan(got, expected):
    assert per_rank(got.shares, got.messages) == shares_of(expected.fabs)
    # a run records them rank after rank, in the order of the launches
    assert got.messages == [m for *_, ms in per_rank(got.shares, got.messages)
                            for m in ms]


def assert_same_fill_plan(got, expected):
    assert_same_plan(got, expected)
    assert (got.coords is None) == (expected.coords is None)
    if expected.coords is not None:
        assert_same_plan(got.coords, expected.coords)
    assert per_rank(got.interp_shares) == shares_of(
        expected.fabs, lambda fp: fp.nfilled, messages=False)


def assert_same_run(got, expected):
    """Bitwise the same data in every MultiFab pair, and the same messages
    recorded on their communicators."""
    for a, b in got:
        assert a.buffer.tobytes() == b.buffer.tobytes()
    assert got[0][0].comm.ledger.table == got[0][1].comm.ledger.table
    assert got[0][0].comm.ledger.table == expected


class Twins:
    """The same generated MultiFabs twice, each copy on its own
    communicator: one for the flat executor, one for the oracle's."""

    def __init__(self, lay):
        self.lay = lay
        self.flat, self.ref = (
            Communicator(lay["nranks"], ranks_per_node=2) for _ in range(2))

    def make(self, ba_dm, ngrow, seed):
        return tuple(make_mf(ba_dm, ngrow, comm, np.random.default_rng(seed))
                     for comm in (self.flat, self.ref))


@settings(max_examples=60, deadline=None)
@given(layouts(), st.booleans())
def test_box_copy_plans_equal_the_oracle(lay, fill_ghosts):
    twins = Twins(lay)
    seed = lay["seed"]
    geom = Geometry(lay["domain"], [0.0] * lay["dim"], [1.0] * lay["dim"],
                    lay["periodic"])
    tiling = twins.make(lay["tiling"], lay["ngrow2"], seed)
    patches = twins.make(lay["patches"], lay["ngrow"], seed + 1)
    for mf, ref in (tiling, patches):
        for g in (geom, None):
            assert_same_plan(boundary._build_plan(mf, g),
                             oracle.fill_boundary_plan(mf, g))
            pieces, fab = boundary.boundary_regions(mf, g)
            for i, _ in mf:
                assert as_boxes(pieces[fab == i]) == oracle.boundary_regions(
                    mf, i, g)
            boundary.fill_boundary_nowait(mf, g).finish()
            oracle.run_fill_boundary(ref, g)
            assert_same_run([(mf, ref)], twins.ref.ledger.table)
    for (src, src_ref), (dst, dst_ref) in ((tiling, patches), (patches, tiling)):
        assert_same_plan(
            parallelcopy.copy_plan(dst, src, 1, fill_ghosts),
            oracle.copy_plan(dst, src, 1, fill_ghosts))
        parallelcopy.parallel_copy(dst, src, fill_ghosts=fill_ghosts)
        oracle.run_parallel_copy(dst_ref, src_ref, fill_ghosts)
        assert_same_run([(dst, dst_ref)], twins.ref.ledger.table)
    r = IntVect.filled(lay["dim"], lay["ratio"])
    ba, dm = lay["patches"]
    fine, fine_ref = twins.make((ba.refine(r), dm), lay["ngrow2"], seed + 2)
    assert_same_plan(average_down._build_plan(fine, tiling[0], r),
                     oracle.average_down_plan(fine, tiling[0], r))
    average_down.average_down(fine, tiling[0], r)
    oracle.run_average_down(fine_ref, tiling[1], r)
    assert_same_run([tiling, (fine, fine_ref)], twins.ref.ledger.table)


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


def two_levels(lay, kind, comm):
    """:class:`TwoLevels` with any of the four interpolators."""
    lv = TwoLevels(lay, "trilinear" if kind == "weno" else kind, comm,
                   np.random.default_rng(lay["seed"]))
    if kind == "weno":
        lv.interp = WenoInterp()
    return lv


@settings(max_examples=60, deadline=None)
@given(layouts(), st.sampled_from(sorted([*INTERPS, "weno"])), st.booleans())
@example(PERIODIC_2D, "curvilinear", False)
@example(PERIODIC_2D, "trilinear", True)
@example(PERIODIC_2D, "weno", False)
@example(LAYOUT_3D, "curvilinear", False)
@example(LAYOUT_3D, "trilinear", False)
@example(LAYOUT_3D, "conslinear", True)
def test_fill_plans_equal_the_oracle(lay, kind, whole):
    twins = Twins(lay)
    lv, ref = (two_levels(lay, kind, comm) for comm in (twins.flat, twins.ref))
    r = IntVect.filled(lay["dim"], lay["ratio"])
    args, ref_args = ((x.fine, x.crse, x.geom_f, r, x.interp, x.crse_coords,
                       x.fine_coords) for x in (lv, ref))
    # the whole level: every valid box, each owned by its own fab
    pieces = (lv.fine.ba.lohi, np.arange(len(lv.fine))) if whole else None
    plan = fillpatch.build_fill_plan(*args, pieces)
    expected = oracle.build_fill_plan(*ref_args, whole)
    assert_same_fill_plan(plan, expected)
    if plan.coords is not None:
        plan.coords.run("PC_copy", lambda: None)
    fillpatch._fill_level(plan, lv.fine, lv.crse, r, lv.interp)
    oracle.run_fill(expected, ref.fine, ref.crse, r, ref.interp)
    assert_same_run([(lv.fine, ref.fine), (lv.crse, ref.crse)],
                    twins.ref.ledger.table)


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
