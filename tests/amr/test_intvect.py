"""Unit and property tests for IntVect."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.amr.intvect import IntVect

ivec3 = st.tuples(
    st.integers(-1000, 1000), st.integers(-1000, 1000), st.integers(-1000, 1000)
)


def test_construction_variants():
    assert IntVect(1, 2, 3).tup() == (1, 2, 3)
    assert IntVect([1, 2]).tup() == (1, 2)
    assert IntVect((5,)).tup() == (5,)


def test_dimension_limits():
    with pytest.raises(ValueError):
        IntVect(1, 2, 3, 4)
    with pytest.raises(ValueError):
        IntVect()


def test_non_integer_rejected():
    with pytest.raises(TypeError):
        IntVect(1.5, 2)


def test_zero_unit_filled():
    assert IntVect.filled(3, 0) == (0, 0, 0)
    assert IntVect.unit(2) == (1, 1)
    assert IntVect.filled(3, 7) == (7, 7, 7)


def test_coerce_scalar_and_sequence():
    assert IntVect.coerce(4, 3) == (4, 4, 4)
    assert IntVect.coerce([1, 2], 2) == (1, 2)
    with pytest.raises(ValueError):
        IntVect.coerce([1, 2], 3)


def test_arithmetic():
    a = IntVect(1, 2, 3)
    b = IntVect(4, 5, 6)
    assert a + b == (5, 7, 9)
    assert b - a == (3, 3, 3)
    assert a * 2 == (2, 4, 6)
    assert b // 2 == (2, 2, 3)
    assert a + 1 == (2, 3, 4)


def test_comparisons():
    a = IntVect(1, 2, 3)
    assert a.allLE((1, 2, 3))
    assert a.allLE((2, 3, 4))
    assert not a.allLE((1, 1, 4))
    assert not a.allLE((0, 0, 0))


def test_minmax_reductions():
    a = IntVect(3, 1, 2)
    assert a.min() == 1
    assert a.min_with((2, 2, 2)) == (2, 1, 2)
    assert a.max_with((2, 2, 2)) == (3, 2, 2)


def test_coarsen_rounds_toward_minus_infinity():
    assert IntVect(-1, -2, -3).coarsen(2) == (-1, -1, -2)
    assert IntVect(3, 4, 5).coarsen(2) == (1, 2, 2)


def test_coarsen_rejects_nonpositive_ratio():
    with pytest.raises(ValueError):
        IntVect(1, 1, 1).coarsen(0)


def test_hashable_and_eq_tuple():
    assert hash(IntVect(1, 2)) == hash(IntVect(1, 2))
    assert IntVect(1, 2) == (1, 2)
    assert {IntVect(1, 2): "x"}[IntVect(1, 2)] == "x"


@given(ivec3, ivec3)
def test_add_sub_roundtrip(a, b):
    va, vb = IntVect(*a), IntVect(*b)
    assert (va + vb) - vb == va


@given(ivec3, st.integers(1, 8))
def test_refine_coarsen_roundtrip(a, r):
    v = IntVect(*a)
    assert (v * r).coarsen(r) == v


@given(ivec3, st.integers(1, 8))
def test_coarsen_bounds(a, r):
    """coarsen(x, r) * r <= x < (coarsen(x, r) + 1) * r componentwise."""
    v = IntVect(*a)
    c = v.coarsen(r)
    assert (c * r).allLE(v)
    assert (v + 1).allLE((c + 1) * r)
