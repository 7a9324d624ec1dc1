"""Tests for Summit-scale decomposition metadata."""

import numpy as np
import pytest

from repro.amr.boundary import fill_boundary_nowait
from repro.amr.box import Box
from repro.perfmodel.calibration import CAL, Calibration
from repro.perfmodel.decomposition import (
    BoxLevel,
    HierarchySpec,
    LatticeLevel,
    active_points,
    amr_reduction,
    auto_max_grid_size,
    build_hierarchy,
    dmr_band_hierarchy,
    dmr_grid_shape,
    lattice_box_size,
    shock_band_boxes,
)
from tests.conftest import no_overlaps


def test_dmr_grid_shape_properties():
    shape = dmr_grid_shape(1.64e8)
    nx, ny, nz = shape
    assert nx == 2 * nz  # the 2:1 x:z constraint
    assert all(n % 32 == 0 for n in shape)
    total = nx * ny * nz
    assert 0.5 < total / 1.64e8 < 2.0  # near the target
    with pytest.raises(ValueError):
        dmr_grid_shape(-1)


def test_auto_max_grid_size():
    cal = CAL
    # plenty of points: capped at the paper's 128
    assert auto_max_grid_size(1e10, 64, cal) == 128
    # few points per rank: shrinks in blocking-factor units
    ms = auto_max_grid_size(64**3, 64, cal)
    assert ms == 16
    assert auto_max_grid_size(100, 64, cal) == 8  # floor at blocking factor
    with pytest.raises(ValueError):
        auto_max_grid_size(0, 4, cal)


def test_lattice_box_size_divisors():
    assert lattice_box_size(128, 40, 8) == 32
    assert lattice_box_size(96, 50, 8) == 48
    assert lattice_box_size(64, 128, 8) == 64
    with pytest.raises(ValueError):
        lattice_box_size(65, 32, 8)


def make_lattice(n=64, box=16, nranks=8):
    dom = Box((0, 0, 0), (n - 1, n - 1, n - 1))
    return LatticeLevel(0, dom, (box, box, box), nranks)


def test_lattice_level_accounting():
    lev = make_lattice()
    assert lev.num_boxes() == 64
    assert lev.num_pts() == 64**3
    loads = lev.per_rank_pts()
    assert loads.sum() == 64**3
    assert loads.min() > 0  # SFC spreads over all ranks
    pts, ranks = lev.box_pts_and_ranks()
    assert len(pts) == 64
    assert np.all(pts == 16**3)


def test_lattice_indivisible_rejected():
    with pytest.raises(ValueError):
        LatticeLevel(0, Box((0, 0, 0), (63, 63, 63)), (15, 16, 16), 4)


def test_lattice_fillboundary_exact_volumes():
    """Cross-check the vectorized lattice volumes against the generic path."""
    from repro.amr.boxarray import BoxArray
    from repro.amr.distribution import DistributionMapping

    n, box, nranks, ng, ncomp = 32, 8, 4, 2, 5
    lat = LatticeLevel(0, Box((0, 0, 0), (n - 1,) * 3), (box,) * 3, nranks)
    vol_lat = lat.fillboundary_volumes(ncomp, ng, 2)

    ba = BoxArray.from_domain(Box((0, 0, 0), (n - 1,) * 3), box, 8)
    # identical SFC assignment is not guaranteed; compare totals only
    dm = DistributionMapping.make(ba, nranks, "sfc")
    gen = BoxLevel(0, Box((0, 0, 0), (n - 1,) * 3), ba, dm)
    vol_gen = gen.fillboundary_volumes(ncomp, ng, 2)
    assert vol_lat.total_bytes == pytest.approx(vol_gen.total_bytes)


def test_fillboundary_volume_cache():
    lev = make_lattice()
    a = lev.fillboundary_volumes_cached(5, 4, 2)
    b = lev.fillboundary_volumes_cached(5, 4, 2)
    assert a is b
    c = lev.fillboundary_volumes_cached(5, 2, 2)
    assert c is not a


def test_shock_band_boxes_geometry():
    cal = CAL
    dom = Box((0, 0, 0), (255, 127, 63))
    ba = shock_band_boxes(dom, 0.1, cal, 32)
    assert len(ba) > 0
    assert no_overlaps(ba)
    covered = ba.num_pts() / dom.num_pts()
    assert 0.05 < covered < 0.35  # near the requested fraction
    for b in ba:
        assert dom.contains(b)
        assert max(b.size()) <= 32
    # the union spans the full z extent (spanwise-uniform shock)
    assert min(b.lo[2] for b in ba) == 0
    assert max(b.hi[2] for b in ba) == 63
    # the band follows the shock: mean x of boxes increases with y
    lo_y = [b for b in ba if b.lo[1] == 0]
    hi_y = [b for b in ba if b.hi[1] == 127]
    assert min(b.lo[0] for b in hi_y) >= min(b.lo[0] for b in lo_y)


def test_build_hierarchy_uniform():
    spec = HierarchySpec((128, 64, 64), nranks=16, ranks_per_node=4, amr=False)
    levels = build_hierarchy(spec)
    assert len(levels) == 1
    assert levels[0].num_pts() == 128 * 64 * 64


def test_build_hierarchy_amr_reduction_in_paper_range():
    levels = dmr_band_hierarchy(2e8, nranks=96, ranks_per_node=6, amr=True)
    assert len(levels) == 3
    red = amr_reduction(levels)
    assert 0.85 < red < 0.95  # the paper quotes 89-94%
    # level domains refine by 2
    for a, b in zip(levels, levels[1:]):
        assert b.domain.size()[0] == 2 * a.domain.size()[0]


def test_hierarchy_ranks_get_work():
    levels = dmr_band_hierarchy(2e8, nranks=96, ranks_per_node=6, amr=True)
    # the finest (largest) level feeds every rank
    assert levels[-1].per_rank_pts().min() > 0


def test_active_points_consistency():
    levels = dmr_band_hierarchy(1e8, nranks=24, ranks_per_node=6, amr=True)
    assert active_points(levels) == sum(l.num_pts() for l in levels)


def test_modeled_volumes_match_functional_ledger():
    """Layer cross-validation: the perfmodel's box-exact FillBoundary
    volumes equal the traffic a real MultiFab exchange records."""
    from repro.amr.boxarray import BoxArray
    from repro.amr.distribution import DistributionMapping
    from repro.amr.multifab import MultiFab
    from repro.mpi.comm import Communicator

    dom = Box((0, 0, 0), (31, 31, 31))
    ba = BoxArray.from_domain(dom, 16, 8)
    nranks, rpn, ncomp, ng = 4, 2, 5, 4
    dm = DistributionMapping.make(ba, nranks, "sfc")
    lev = BoxLevel(0, dom, ba, dm)
    vols = lev.fillboundary_volumes(ncomp, ng, rpn)

    comm = Communicator(nranks, ranks_per_node=rpn)
    mf = MultiFab(ba, dm, ncomp, ng, comm)
    comm.ledger.clear()
    fill_boundary_nowait(mf).finish()
    led = comm.ledger
    # total moved bytes agree exactly (both are box-intersection geometry)
    assert led.total_bytes("fillboundary") == vols.total_bytes
    # off-node split agrees
    traffic = led.traffic()["fillboundary"]
    assert traffic["off_node_bytes"] == pytest.approx(vols.off_node_recv.sum())
    assert traffic["on_node_bytes"] == pytest.approx(vols.on_node_recv.sum())


def test_lattice_volumes_match_functional_ledger():
    """Same cross-check for the vectorized lattice path."""
    from repro.amr.boxarray import BoxArray
    from repro.amr.distribution import DistributionMapping
    from repro.amr.multifab import MultiFab
    from repro.mpi.comm import Communicator

    dom = Box((0, 0, 0), (31, 31, 31))
    lat = LatticeLevel(0, dom, (16, 16, 16), 4)
    vols = lat.fillboundary_volumes(5, 4, 2)

    ba = BoxArray.from_domain(dom, 16, 8)
    dm = DistributionMapping.make(ba, 4, "sfc")
    comm = Communicator(4, ranks_per_node=2)
    mf = MultiFab(ba, dm, 5, 4, comm)
    comm.ledger.clear()
    fill_boundary_nowait(mf).finish()
    assert comm.ledger.total_bytes("fillboundary") == pytest.approx(
        vols.total_bytes)
