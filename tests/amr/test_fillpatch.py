"""Tests for FillPatch single-level, two-level and coarse-patch fills."""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import DistributionMapping
from repro.amr.fillpatch import (
    fill_coarse_patch,
    fill_patch_single_level,
    fill_patch_two_levels,
)
from repro.amr.geometry import Geometry
from repro.amr.interp_curvilinear import CurvilinearInterp
from repro.amr.interpolate import TrilinearInterp
from repro.amr.multifab import MultiFab
from repro.mpi.comm import Communicator


def linear(mf, coeffs, scale=1.0):
    """Fill valid regions with an affine function of cell centers (index space)."""
    for i, fab in mf:
        b = fab.box
        grids = np.meshgrid(
            *[(np.arange(b.lo[d], b.hi[d] + 1) + 0.5) * scale for d in range(b.dim)],
            indexing="ij",
        )
        fab.valid()[0] = 1.0 + sum(c * g for c, g in zip(coeffs, grids))


def setup_two_levels(ngrow=2, nranks=2):
    comm = Communicator(nranks, ranks_per_node=1)
    dom_c = Box((0, 0), (31, 31))
    geom_c = Geometry(dom_c, (0.0, 0.0), (1.0, 1.0))
    geom_f = geom_c.refine(2)
    ba_c = BoxArray.from_domain(dom_c, 16, 8)
    ba_f = BoxArray([Box((16, 16), (47, 47))])  # covers coarse (8,8)-(23,23)
    crse = MultiFab(ba_c, DistributionMapping.make(ba_c, nranks), 1, ngrow, comm)
    fine = MultiFab(ba_f, DistributionMapping.make(ba_f, nranks), 1, ngrow, comm)
    return crse, fine, geom_c, geom_f


def apply_bc(mf, geom, bc, time=0.0):
    """The physical boundary fill the driver runs after a FillPatch
    (``Crocco._bc_fill``), one call per fab."""
    for _, fab in mf:
        bc(fab, geom, time)


def test_single_level_with_bc():
    comm = Communicator(2, ranks_per_node=1)
    dom = Box((0, 0), (15, 15))
    geom = Geometry(dom, (0.0, 0.0), (1.0, 1.0))
    ba = BoxArray.from_domain(dom, 8, 8)
    mf = MultiFab(ba, DistributionMapping.make(ba, 2), 1, 1, comm)
    mf.set_val(-1.0)
    linear(mf, (1.0, 0.0))

    calls = []

    def bc(fab, g, t):
        calls.append((fab.box, t))

    fill_patch_single_level(mf, geom)
    apply_bc(mf, geom, bc, time=2.5)
    assert calls == [(fab.box, 2.5) for _, fab in mf]
    # interior ghosts continue the linear field
    fab = mf.fab(0)
    assert fab.view(Box((8, 0), (8, 0)))[0, 0, 0] == pytest.approx(1.0 + 8.5)


def test_two_levels_interpolates_interface_ghosts():
    crse, fine, geom_c, geom_f = setup_two_levels()
    # linear field in *physical* space: coarse spacing 2x fine spacing
    linear(crse, (2.0, 3.0), scale=1.0)
    linear(fine, (2.0, 3.0), scale=0.5)
    fill_patch_two_levels(fine, crse, geom_f, geom_c, 2, TrilinearInterp())
    fab = fine.fab(0)
    # ghost cells at fine x=14..15 (outside fine BA) interpolated from coarse;
    # linear field must be reproduced exactly in physical (coarse-index) space
    ghost = fab.view(Box((14, 16), (15, 47)))
    ii = (np.arange(14, 16) + 0.5) * 0.5
    jj = (np.arange(16, 48) + 0.5) * 0.5
    expected = 1.0 + 2.0 * ii[:, None] + 3.0 * jj[None, :]
    assert np.allclose(ghost[0], expected)


def test_two_levels_leaves_outside_domain_to_bc():
    crse, fine, geom_c, geom_f = setup_two_levels()
    fine2 = MultiFab(
        BoxArray([Box((0, 0), (31, 31))]),
        DistributionMapping.make(BoxArray([Box((0, 0), (31, 31))]), 2),
        1, 2, crse.comm,
    )
    crse.set_val(5.0)
    fine2.set_val(-3.0)
    hits = []

    def bc(fab, g, t):
        hits.append(True)
        # physical BC: set everything outside the domain to 99
        gb = fab.grown_box()
        arr = fab.whole()
        for d in range(gb.dim):
            if gb.lo[d] < g.domain.lo[d]:
                sl = [slice(None)] * arr.ndim
                sl[d + 1] = slice(0, g.domain.lo[d] - gb.lo[d])
                arr[tuple(sl)] = 99.0

    fill_patch_two_levels(fine2, crse, geom_f, geom_c, 2, TrilinearInterp())
    apply_bc(fine2, geom_f, bc)
    assert hits
    fab = fine2.fab(0)
    assert fab.view(Box((-1, 0), (-1, 0)))[0, 0, 0] == 99.0


def test_two_levels_curvilinear_records_global_parallelcopy():
    crse, fine, geom_c, geom_f = setup_two_levels()
    dim = 2
    ccoords = MultiFab(crse.ba, crse.dm, dim, crse.ngrow, crse.comm)
    fcoords = MultiFab(fine.ba, fine.dm, dim, fine.ngrow, fine.comm)
    # uniform coordinates (content irrelevant for the traffic assertion)
    for mf, scale in ((ccoords, 1.0), (fcoords, 0.5)):
        for i, fab in mf:
            gb = fab.grown_box()
            ii = (np.arange(gb.lo[0], gb.hi[0] + 1) + 0.5) * scale
            jj = (np.arange(gb.lo[1], gb.hi[1] + 1) + 0.5) * scale
            fab.data[0] = ii[:, None] * np.ones_like(jj)[None, :]
            fab.data[1] = np.ones_like(ii)[:, None] * jj[None, :]
    linear(crse, (1.0, 1.0), 1.0)
    linear(fine, (1.0, 1.0), 0.5)
    crse.comm.ledger.clear()
    fill_patch_two_levels(fine, crse, geom_f, geom_c, 2, CurvilinearInterp(),
                          crse_coords=ccoords, fine_coords=fcoords)
    pc = crse.comm.ledger.total_bytes("parallelcopy")
    assert pc > 0
    # the coordinates gather dominates: it copies the whole coarse level +
    # ghosts, far exceeding the interface stencil volume
    assert pc > ccoords.ba.num_pts() * dim * 8


def test_trilinear_no_coords_no_big_parallelcopy():
    """CRoCCo 2.1: built-in interpolator avoids the global coordinate copy."""
    crse, fine, geom_c, geom_f = setup_two_levels()
    linear(crse, (1.0, 1.0), 1.0)
    linear(fine, (1.0, 1.0), 0.5)
    crse.comm.ledger.clear()
    fill_patch_two_levels(fine, crse, geom_f, geom_c, 2, TrilinearInterp())
    pc = crse.comm.ledger.total_bytes("parallelcopy")
    # only the interface stencils move: far less than a whole-level copy
    assert pc < crse.ba.num_pts() * 8


def test_fill_coarse_patch_initializes_new_level():
    crse, fine, geom_c, geom_f = setup_two_levels()
    linear(crse, (2.0, 0.0), 1.0)
    fine.set_val(0.0)
    fill_coarse_patch(fine, crse, geom_f, 2, TrilinearInterp())
    fab = fine.fab(0)
    ii = (np.arange(16, 48) + 0.5) * 0.5
    expected = 1.0 + 2.0 * ii
    assert np.allclose(fab.valid()[0, :, 0], expected)


def test_curvilinear_requires_coords_error():
    crse, fine, geom_c, geom_f = setup_two_levels()
    with pytest.raises(ValueError):
        fill_patch_two_levels(fine, crse, geom_f, geom_c, 2, CurvilinearInterp())


def test_nearest_fill_interior_gap():
    """_nearest_fill repairs NaN regions anywhere, not just at margins."""
    import numpy as np

    from repro.amr.fillpatch import _nearest_fill

    data = np.full((1, 8, 8), np.nan)
    data[0, 2:4, 2:4] = 7.0
    _nearest_fill(data)
    assert np.isfinite(data).all()
    assert np.all(data == 7.0)

    data = np.arange(16.0).reshape(1, 4, 4).copy()
    data[0, 1, 1] = np.nan
    _nearest_fill(data)
    assert np.isfinite(data).all()

    with pytest.raises(ValueError):
        _nearest_fill(np.full((1, 3, 3), np.nan))


def test_two_levels_weno_interpolator():
    """The WENO interface interpolator works inside FillPatchTwoLevels."""
    from repro.amr.interp_weno import WenoInterp

    crse, fine, geom_c, geom_f = setup_two_levels(ngrow=2)
    linear(crse, (1.0, 2.0), 1.0)
    linear(fine, (1.0, 2.0), 0.5)
    fill_patch_two_levels(fine, crse, geom_f, geom_c, 2, WenoInterp())
    fab = fine.fab(0)
    ghost = fab.view(Box((14, 18), (15, 45)))
    ii = (np.arange(14, 16) + 0.5) * 0.5
    jj = (np.arange(18, 46) + 0.5) * 0.5
    expected = 1.0 + ii[:, None] + 2.0 * jj[None, :]
    assert np.allclose(ghost[0], expected, atol=1e-6)


def test_three_level_fillpatch_chain():
    """Level 2 ghosts fill from level 1 even when level 1 is a partial cover."""
    comm = Communicator(2, ranks_per_node=1)
    dom0 = Box((0, 0), (31, 31))
    geom = [Geometry(dom0, (0.0, 0.0), (1.0, 1.0))]
    geom.append(geom[0].refine(2))
    geom.append(geom[1].refine(2))
    ba0 = BoxArray.from_domain(dom0, 16, 8)
    ba1 = BoxArray([Box((16, 16), (47, 47))])
    ba2 = BoxArray([Box((48, 48), (79, 79))])  # inside ba1's refinement
    mfs = []
    for ba, ng in ((ba0, 2), (ba1, 2), (ba2, 2)):
        dm = DistributionMapping.make(ba, 2)
        mfs.append(MultiFab(ba, dm, 1, ng, comm))
    for lev, scale in ((0, 1.0), (1, 0.5), (2, 0.25)):
        linear(mfs[lev], (2.0, 1.0), scale)
    fill_patch_two_levels(mfs[2], mfs[1], geom[2], geom[1], 2, TrilinearInterp())
    fab = mfs[2].fab(0)
    # ghost at fine-2 (46..47, j) comes from level 1 data
    ghost = fab.view(Box((46, 48), (47, 79)))
    ii = (np.arange(46, 48) + 0.5) * 0.25
    jj = (np.arange(48, 80) + 0.5) * 0.25
    expected = 1.0 + 2.0 * ii[:, None] + jj[None, :]
    assert np.allclose(ghost[0], expected)
