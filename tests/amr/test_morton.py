"""Tests for Z-Morton encoding, including a bit-by-bit reference check."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.amr.morton import MORTON_BITS, morton_encode, morton_order


def reference_morton(coord, dim):
    """Slow bit-interleaving reference."""
    code = 0
    for bit in range(MORTON_BITS):
        for d in range(dim):
            code |= ((coord[d] >> bit) & 1) << (bit * dim + d)
    return code


def encode_one(coord):
    return int(morton_encode(np.array([coord], dtype=np.int64))[0])


@given(st.tuples(st.integers(0, 2**20), st.integers(0, 2**20), st.integers(0, 2**20)))
def test_matches_reference_3d(coord):
    assert encode_one(coord) == reference_morton(coord, 3)


@given(st.tuples(st.integers(0, 2**20), st.integers(0, 2**20)))
def test_matches_reference_2d(coord):
    assert encode_one(coord) == reference_morton(coord, 2)


@given(st.tuples(st.integers(0, 2**20)))
def test_identity_1d(coord):
    assert encode_one(coord) == coord[0]


def test_vectorized_encode():
    coords = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    codes = morton_encode(coords)
    assert codes.tolist() == [0, 1, 2, 4, 7]


def test_rejects_negative_and_overflow():
    with pytest.raises(ValueError):
        morton_encode(np.array([[-1, 0, 0]]))
    with pytest.raises(ValueError):
        morton_encode(np.array([[1 << MORTON_BITS, 0, 0]]))


def test_order_is_locality_preserving():
    """Points in the same quadrant sort together along the curve."""
    coords = np.array([[0, 0], [1, 1], [100, 100], [101, 100], [0, 1], [100, 101]])
    order = morton_order(coords)
    ordered = coords[order]
    # all small-quadrant points precede all large-quadrant points
    small = {(0, 0), (1, 1), (0, 1)}
    seen_large = False
    for pt in map(tuple, ordered):
        if pt in small:
            assert not seen_large
        else:
            seen_large = True


@given(
    st.lists(
        st.tuples(st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000)),
        min_size=1,
        max_size=50,
        unique=True,
    )
)
def test_encoding_is_injective(coords):
    codes = morton_encode(np.array(coords))
    assert len(set(codes.tolist())) == len(coords)
