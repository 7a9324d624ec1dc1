"""Unit and property tests for Box algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.boxarray import boxes_of, cells, chop, diff, lohi_of
from repro.amr.intvect import IntVect


def boxes(dim=3, span=20):
    lo = st.tuples(*([st.integers(-span, span)] * dim))
    size = st.tuples(*([st.integers(1, span)] * dim))
    return st.builds(
        lambda l, s: Box(IntVect(*l), IntVect(*[a + b - 1 for a, b in zip(l, s)])),
        lo,
        size,
    )


def test_basic_properties():
    b = Box((0, 0, 0), (3, 4, 5))
    assert b.size() == (4, 5, 6)
    assert b.num_pts() == 120
    assert b.shape() == (4, 5, 6)
    assert not b.is_empty()


def test_from_extent_and_cube():
    assert Box.from_extent(IntVect(1, 1), (3, 3)) == Box((1, 1), (3, 3))
    assert Box.from_extent((0, 0, 0), 8) == Box((0, 0, 0), (7, 7, 7))


def test_empty_box():
    b = Box((0, 0), (-1, 5))
    assert b.is_empty()
    assert b.num_pts() == 0


def test_contains():
    b = Box((0, 0), (9, 9))
    assert b.contains(Box((2, 2), (5, 5)))
    assert not b.contains(Box((2, 2), (10, 5)))
    assert b.contains(IntVect(0, 9))
    assert not b.contains(IntVect(-1, 0))


def test_grow_shift():
    b = Box((0, 0), (3, 3))
    assert b.grow(2) == Box((-2, -2), (5, 5))
    assert b.grow(2).grow(-2) == b
    assert b.shift((1, -1)) == Box((1, -1), (4, 2))


def test_refine_coarsen():
    b = Box((0, 0), (3, 3))
    assert b.refine(2) == Box((0, 0), (7, 7))
    assert b.refine(2).coarsen(2) == b
    # coarsening a misaligned box covers the original
    c = Box((1, 1), (4, 4)).coarsen(2)
    assert c == Box((0, 0), (2, 2))


def test_intersect():
    a = Box((0, 0), (5, 5))
    b = Box((3, 3), (8, 8))
    assert a.intersect(b) == Box((3, 3), (5, 5))
    assert a.intersects(b)
    assert not a.intersects(Box((6, 6), (7, 7)))


def test_chop():
    b = Box((0, 0), (7, 7))
    lo, hi = b.chop(0, 4)
    assert lo == Box((0, 0), (3, 7))
    assert hi == Box((4, 0), (7, 7))
    with pytest.raises(ValueError):
        b.chop(0, 0)
    with pytest.raises(ValueError):
        b.chop(0, 8)


def test_max_size_chop_covers_and_limits():
    b = Box((0, 0, 0), (63, 31, 15))
    parts = boxes_of(chop(lohi_of([b]), 16))
    assert sum(p.num_pts() for p in parts) == b.num_pts()
    for p in parts:
        assert max(p.size()) <= 16
    # disjointness
    for i, p in enumerate(parts):
        for q in parts[i + 1:]:
            assert not p.intersects(q)


def box_diff(a, b):
    """``a`` minus ``b`` through the batched difference."""
    return boxes_of(diff(lohi_of([a]), lohi_of([b])[0])[0])


def test_diff_covers_complement():
    a = Box((0, 0), (9, 9))
    b = Box((3, 3), (6, 6))
    pieces = box_diff(a, b)
    assert sum(p.num_pts() for p in pieces) == a.num_pts() - b.num_pts()
    for p in pieces:
        assert not p.intersects(b)
        assert a.contains(p)


def test_diff_disjoint_returns_self():
    a = Box((0, 0), (3, 3))
    assert box_diff(a, Box((10, 10), (12, 12))) == [a]


def test_diff_covered_returns_empty():
    a = Box((2, 2), (4, 4))
    assert box_diff(a, Box((0, 0), (9, 9))) == []


def test_indices_iteration():
    b = Box((0, 0), (1, 2))
    k, pts = cells(lohi_of([b]))
    assert len(pts) == 6 and not k.any()
    assert pts[0].tolist() == [0, 0]
    assert pts[-1].tolist() == [1, 2]


def test_slices():
    b = Box((2, 3), (4, 6))
    outer = Box((0, 0), (9, 9))
    sl = b.slices(relative_to=outer)
    assert sl == (slice(2, 5), slice(3, 7))
    assert b.slices() == (slice(0, 3), slice(0, 4))


@given(boxes(2), boxes(2))
def test_intersection_commutes(a, b):
    assert a.intersect(b) == b.intersect(a)


@given(boxes(2), boxes(2))
def test_diff_partition_property(a, b):
    """The pieces of a minus b and (a & b) partition a exactly."""
    pieces = box_diff(a, b)
    isect = a.intersect(b)
    total = sum(p.num_pts() for p in pieces) + isect.num_pts()
    assert total == a.num_pts()
    for i, p in enumerate(pieces):
        assert not p.intersects(isect) or isect.is_empty()
        for q in pieces[i + 1:]:
            assert not p.intersects(q)


@given(boxes(3), st.integers(1, 4))
def test_refine_coarsen_roundtrip(b, r):
    assert b.refine(r).coarsen(r) == b


@given(boxes(3), st.integers(1, 4))
def test_coarsen_covers(b, r):
    assert b.coarsen(r).refine(r).contains(b)


@given(boxes(2), st.integers(1, 10))
def test_grow_num_pts(b, n):
    g = b.grow(n)
    expected = 1
    for s in b.size():
        expected *= s + 2 * n
    assert g.num_pts() == expected
