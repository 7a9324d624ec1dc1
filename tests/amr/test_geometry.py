"""Tests for the Geometry (domain / periodicity / refinement) class."""

import pytest

from repro.amr.box import Box
from repro.amr.geometry import Geometry


def make(periodic=(False, False)):
    return Geometry(Box((0, 0), (31, 15)), (0.0, -1.0), (2.0, 1.0), periodic)


def test_basic_properties():
    g = make()
    assert g.dim == 2
    assert g.domain.size() == (32, 16)
    assert (g.prob_lo, g.prob_hi) == ((0.0, -1.0), (2.0, 1.0))
    assert g.periodic == (False, False)


def test_validation():
    with pytest.raises(ValueError):
        Geometry(Box((0, 0), (7, 7)), (0.0,), (1.0, 1.0))
    with pytest.raises(ValueError):
        Geometry(Box((0, 0), (7, 7)), (0.0, 0.0), (0.0, 1.0))  # zero extent
    with pytest.raises(ValueError):
        Geometry(Box((0, 0), (7, 7)), (0.0, 0.0), (1.0, 1.0), (True,))


def test_refine_preserves_physical_extent():
    g = make()
    f = g.refine(2)
    assert f.domain.size() == (64, 32)
    assert f.prob_lo == g.prob_lo
    assert f.prob_hi == g.prob_hi
    assert f.periodic == g.periodic


def test_periodic_shifts_non_periodic():
    g = make(periodic=(False, False))
    assert g.periodic_shifts().shape == (0, 2)


def test_periodic_shifts_single_direction():
    g = make(periodic=(True, False))
    shifts = g.periodic_shifts().tolist()
    tups = {tuple(s) for s in shifts}
    assert (32, 0) in tups
    assert (-32, 0) in tups
    # no y shifts, no zero shift
    assert all(s[1] == 0 for s in shifts)
    assert (0, 0) not in tups
    # of the coarsened domain
    assert g.periodic_shifts(2).tolist() == [[-16, 0], [16, 0]]


def test_periodic_shifts_two_directions_include_diagonals():
    g = make(periodic=(True, True))
    shifts = {tuple(s) for s in g.periodic_shifts().tolist()}
    # face shifts
    assert (32, 0) in shifts and (0, 16) in shifts
    # corner (diagonal) shifts for corner ghost wrap
    assert (32, 16) in shifts and (-32, -16) in shifts
    assert len(shifts) == 8


def test_geometry_repr_roundtrip_info():
    g = make((True, False))
    text = repr(g)
    assert "periodic=(True, False)" in text
