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


def test_data_shape_validation():
    with pytest.raises(ValueError):
        FArrayBox(Box((0, 0), (3, 3)), ncomp=1, data=np.zeros((1, 5, 5)))


def test_3d():
    f = FArrayBox(Box((0, 0, 0), (3, 4, 5)), ncomp=2, ngrow=1)
    assert f.data.shape == (2, 6, 7, 8)
    assert f.valid().shape == (2, 4, 5, 6)


def test_given_data_is_aliased_never_copied():
    """A fab over ``data`` *is* that array: a strided view of a level's
    group array stays one (writes through either side show in the other),
    and an array it could only hold by copying — another dtype — is an
    error, not a silent copy that would detach the fab from its level."""
    group = np.zeros((3, 4, 6, 6))            # (ncomp, B, *grown)
    view = group[:, 2]
    assert not view.flags.c_contiguous
    f = FArrayBox(Box((0, 0), (3, 3)), ncomp=3, ngrow=1, data=view)
    assert f.data is view and np.shares_memory(f.data, group)
    f.valid()[...] = 7.0
    assert (group[:, 2, 1:-1, 1:-1] == 7.0).all()
    assert (group[:, [0, 1, 3]] == 0.0).all()
    group[1, 2, 0, 0] = -1.0
    assert f.data[1, 0, 0] == -1.0
    with pytest.raises(ValueError, match="float64"):
        FArrayBox(Box((0, 0), (3, 3)), ncomp=3, ngrow=1,
                  data=view.astype(np.float32))
