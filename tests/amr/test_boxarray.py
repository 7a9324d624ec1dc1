"""Tests for BoxArray decomposition and intersection queries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray, boxes_of, coarsen
from tests.conftest import no_overlaps


def test_from_domain_covers_exactly():
    domain = Box((0, 0, 0), (63, 63, 31))
    ba = BoxArray.from_domain(domain, max_grid_size=16, blocking_factor=8)
    assert ba.num_pts() == domain.num_pts()
    assert no_overlaps(ba)
    for b in ba:
        assert max(b.size()) <= 16
        for d in range(3):
            assert b.size()[d] % 8 == 0
            assert b.lo[d] % 8 == 0


def test_from_domain_rejects_bad_blocking():
    with pytest.raises(ValueError):
        BoxArray.from_domain(Box((0, 0), (62, 63)), 16, 8)  # 63 cells not /8
    with pytest.raises(ValueError):
        BoxArray.from_domain(Box((0, 0), (63, 63)), 12, 8)  # 12 not /8


def test_single_box_when_small():
    domain = Box((0, 0), (7, 7))
    ba = BoxArray.from_domain(domain, 128, 8)
    assert len(ba) == 1
    assert ba[0] == domain


def test_intersecting_and_intersections():
    domain = Box((0, 0), (31, 31))
    ba = BoxArray.from_domain(domain, 8, 8)
    assert len(ba) == 16
    region = Box((6, 6), (9, 9))  # spans 4 boxes
    _, hits, overlaps = ba.intersect(region)
    assert len(hits) == 4
    for i, overlap in zip(hits.tolist(), boxes_of(overlaps)):
        assert overlap == ba[i].intersect(region)
        assert not overlap.is_empty()


def test_intersecting_empty_region():
    ba = BoxArray.from_domain(Box((0, 0), (15, 15)), 8, 8)
    assert ba.intersect(Box((5, 5), (4, 4)))[1].tolist() == []


def test_contains_and_complement():
    ba = BoxArray.from_domain(Box((0, 0), (15, 15)), 8, 8)
    assert ba.contains(Box((3, 3), (12, 12)))
    assert not ba.contains(Box((-1, 0), (3, 3)))
    comp = boxes_of(ba.complement(Box((-2, 0), (3, 3)))[0])
    assert sum(b.num_pts() for b in comp) == 2 * 4


def test_complement_of_partial_cover():
    ba = BoxArray([Box((0, 0), (3, 3))])
    comp = boxes_of(ba.complement(Box((0, 0), (7, 7)))[0])
    assert sum(b.num_pts() for b in comp) == 64 - 16


def test_refine_coarsen_roundtrip():
    ba = BoxArray.from_domain(Box((0, 0), (31, 31)), 16, 8)
    assert BoxArray(coarsen(ba.refine(2).lohi, 2)) == ba
    assert ba.refine(2).num_pts() == 4 * ba.num_pts()


def test_rejects_empty_boxes():
    with pytest.raises(ValueError):
        BoxArray([Box((0, 0), (-1, 3))])


def test_rejects_mixed_dims():
    with pytest.raises(ValueError):
        BoxArray([Box((0, 0), (1, 1)), Box((0, 0, 0), (1, 1, 1))])


@settings(max_examples=25)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
    st.tuples(st.integers(1, 30), st.integers(1, 30)),
)
def test_intersection_query_matches_bruteforce(mx, my, rlo, rsize):
    domain = Box((0, 0), (8 * mx * 4 - 1, 8 * my * 4 - 1))
    ba = BoxArray.from_domain(domain, (8 * mx, 8 * my), 8)
    region = Box(rlo, tuple(l + s - 1 for l, s in zip(rlo, rsize)))
    fast = set(ba.intersect(region)[1].tolist())
    slow = {i for i, b in enumerate(ba) if b.intersects(region)}
    assert fast == slow
