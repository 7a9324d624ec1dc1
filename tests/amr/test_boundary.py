"""Tests for FillBoundary ghost exchange."""

import numpy as np
import pytest

from repro.amr.boundary import boundary_regions, fill_boundary_nowait
from repro.amr.box import Box
from repro.amr.boxarray import BoxArray, num_pts
from repro.amr.distribution import DistributionMapping
from repro.amr.geometry import Geometry
from repro.amr.multifab import MultiFab
from repro.mpi.comm import Communicator


def make_mf(ngrow=2, nranks=4, periodic=(False, False)):
    domain = Box((0, 0), (31, 31))
    ba = BoxArray.from_domain(domain, 16, 8)  # 2x2 boxes
    comm = Communicator(nranks, ranks_per_node=2)
    dm = DistributionMapping.make(ba, nranks, "roundrobin")
    mf = MultiFab(ba, dm, 1, ngrow, comm)
    geom = Geometry(domain, (0.0, 0.0), (1.0, 1.0), periodic)
    return mf, geom


def fill_global_index(mf):
    """Set every valid cell to a unique global function f(i,j) = 1000*i + j."""
    for idx, fab in mf:
        b = fab.box
        ii = np.arange(b.lo[0], b.hi[0] + 1)[:, None]
        jj = np.arange(b.lo[1], b.hi[1] + 1)[None, :]
        fab.valid()[0] = 1000.0 * ii + jj


def test_interior_ghosts_filled_exactly():
    mf, geom = make_mf()
    fill_global_index(mf)
    fill_boundary_nowait(mf, geom).finish()
    # box 0 covers (0,0)-(15,15); its ghost cells at x=16..17 come from the
    # neighbor and must continue the global function
    fab = mf.fab(0)
    ghost = fab.view(Box((16, 0), (17, 15)))
    ii = np.arange(16, 18)[:, None]
    jj = np.arange(0, 16)[None, :]
    assert np.allclose(ghost[0], 1000.0 * ii + jj)


def test_corner_ghosts_filled():
    mf, geom = make_mf()
    fill_global_index(mf)
    fill_boundary_nowait(mf, geom).finish()
    fab = mf.fab(0)
    corner = fab.view(Box((16, 16), (17, 17)))
    ii = np.arange(16, 18)[:, None]
    jj = np.arange(16, 18)[None, :]
    assert np.allclose(corner[0], 1000.0 * ii + jj)


def test_domain_boundary_ghosts_untouched():
    mf, geom = make_mf()
    mf.set_val(-5.0)
    fill_global_index(mf)
    fill_boundary_nowait(mf, geom).finish()
    fab = mf.fab(0)
    # ghosts at x < 0 are outside the (non-periodic) domain: must stay -5
    outside = fab.view(Box((-2, 0), (-1, 15)))
    assert np.all(outside == -5.0)


def test_periodic_ghosts_wrap():
    mf, geom = make_mf(periodic=(True, True))
    fill_global_index(mf)
    fill_boundary_nowait(mf, geom).finish()
    fab = mf.fab(0)
    # ghost at x=-1 wraps to x=31
    ghost = fab.view(Box((-1, 0), (-1, 15)))
    jj = np.arange(0, 16)
    assert np.allclose(ghost[0, 0, :], 1000.0 * 31 + jj)


def test_periodic_corner_wraps_diagonally():
    mf, geom = make_mf(periodic=(True, True))
    fill_global_index(mf)
    fill_boundary_nowait(mf, geom).finish()
    fab = mf.fab(0)
    ghost = fab.view(Box((-1, -1), (-1, -1)))
    assert ghost[0, 0, 0] == 1000.0 * 31 + 31


def test_messages_recorded_with_owner_ranks():
    mf, geom = make_mf(nranks=4)
    mf.comm.ledger.clear()
    fill_boundary_nowait(mf, geom).finish()
    msgs = [m for m, _ in mf.comm.ledger.rows("fillboundary")]
    assert len(msgs) > 0
    # with roundrobin over 4 ranks every exchange crosses ranks
    assert all(m.src != m.dst for m in msgs)
    # total volume: each box receives ghosts from 3 neighbors
    assert mf.comm.ledger.total_bytes("fillboundary") > 0


def test_zero_ghost_noop():
    mf, geom = make_mf(ngrow=0)
    mf.comm.ledger.clear()
    fill_boundary_nowait(mf, geom).finish()
    assert len(mf.comm.ledger) == 0


def test_boundary_regions_identifies_uncovered():
    mf, geom = make_mf()
    pieces, fab = boundary_regions(mf)
    # box 0 at the domain corner: uncovered ghosts on the low-x and low-y sides
    total = num_pts(pieces[fab == 0]).sum()
    # grown box 20x20=400, valid+covered neighbors fill 18*18 towards high side
    assert total == 400 - 18 * 18


def test_idempotent():
    mf, geom = make_mf()
    fill_global_index(mf)
    fill_boundary_nowait(mf, geom).finish()
    snapshot = {i: fab.data.copy() for i, fab in mf}
    fill_boundary_nowait(mf, geom).finish()
    for i, fab in mf:
        assert np.array_equal(fab.data, snapshot[i])
