"""Tests for FArrayBox views and copies."""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.fab import FArrayBox


def test_allocation_shape():
    f = FArrayBox(Box((0, 0), (7, 7)), ncomp=3, ngrow=2)
    assert f.data.shape == (3, 12, 12)
    assert f.grown_box() == Box((-2, -2), (9, 9))
    assert np.all(f.data == 0.0)


def test_grown_box_is_computed_once():
    f = FArrayBox(Box((2, 2), (5, 5)), ncomp=2, ngrow=(1, 2))
    assert f.grown_box() is f.grown_box()
    assert f.grown_box() == f.box.grow(f.ngrow)
    assert f.valid().shape == f.view().shape == f.view(f.box).shape == (2, 4, 4)
    assert f.valid(slice(1, 2)).base is f.data
    with pytest.raises(ValueError):
        f.view(Box((0, 0), (5, 5)))


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        FArrayBox(Box((0, 0), (-1, 3)))
    with pytest.raises(ValueError):
        FArrayBox(Box((0, 0), (3, 3)), ncomp=0)
    with pytest.raises(ValueError):
        FArrayBox(Box((0, 0), (3, 3)), ngrow=-1)


def test_view_is_a_view():
    f = FArrayBox(Box((0, 0), (7, 7)), ncomp=1, ngrow=1)
    v = f.valid()
    v[...] = 5.0
    assert f.data[0, 1, 1] == 5.0
    assert f.data[0, 0, 0] == 0.0  # ghost untouched


def test_view_subregion_indexing():
    f = FArrayBox(Box((2, 2), (5, 5)), ncomp=1, ngrow=1)
    f.data[0] = np.arange(36).reshape(6, 6)
    # cell (2,2) is at array offset (1,1)
    v = f.view(Box((2, 2), (2, 2)))
    assert v[0, 0, 0] == 7.0


def test_view_out_of_bounds():
    f = FArrayBox(Box((0, 0), (3, 3)), ngrow=1)
    with pytest.raises(ValueError):
        f.view(Box((-2, 0), (1, 1)))


def test_set_val_regions():
    f = FArrayBox(Box((0, 0), (3, 3)), ncomp=2, ngrow=1)
    f.set_val(1.0)
    assert np.all(f.data == 1.0)
    f.set_val(2.0, region=Box((0, 0), (1, 1)), comp=1)
    assert f.data[1, 1, 1] == 2.0
    assert f.data[0, 1, 1] == 1.0


def test_copy_from():
    a = FArrayBox(Box((0, 0), (3, 3)), ncomp=2)
    b = FArrayBox(Box((2, 2), (5, 5)), ncomp=2)
    a.set_val(7.0)
    n = b.copy_from(a, Box((2, 2), (3, 3)))
    assert n == 2 * 4 * 8  # 2 comps * 4 cells * 8 bytes
    assert np.all(b.view(Box((2, 2), (3, 3))) == 7.0)
    assert b.data[0, 2, 2] == 0.0


def test_contains_nan():
    f = FArrayBox(Box((0, 0), (3, 3)))
    assert not f.contains_nan()
    f.data[0, 0, 0] = np.nan
    assert f.contains_nan()


def test_data_shape_validation():
    with pytest.raises(ValueError):
        FArrayBox(Box((0, 0), (3, 3)), ncomp=1, data=np.zeros((1, 5, 5)))


def test_3d():
    f = FArrayBox(Box((0, 0, 0), (3, 4, 5)), ncomp=2, ngrow=1)
    assert f.data.shape == (2, 6, 7, 8)
    assert f.valid().shape == (2, 4, 5, 6)
