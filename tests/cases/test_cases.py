"""Tests for the case definitions and grid mappings."""

import numpy as np
import pytest

from repro.amr.boundary import GhostFaces
from repro.amr.box import Box
from repro.amr.boxarray import BoxArray, lohi_of
from repro.amr.distribution import DistributionMapping
from repro.amr.multifab import MultiFab
from repro.cases.dmr import DoubleMachReflection, X0
from repro.cases.grids import (
    compression_ramp_mapping,
    stretched_mapping,
    tanh_cluster_mapping,
)
from repro.cases.shocktube import SodShockTube
from repro.cases.vortex import IsentropicVortex


def test_sod_initial_condition():
    case = SodShockTube(64)
    coords = np.array([[0.2, 0.8]])
    u = case.initial_condition(coords)
    assert u[0, 0] == 1.0  # left density
    assert u[0, 1] == 0.125
    assert u.shape == (3, 2)


def test_sod_exact_at_t0():
    case = SodShockTube(64)
    coords = case.coordinates(case.geometry0(), lohi_of([case.geometry0().domain]))[:, 0]
    assert np.allclose(case.exact_solution(coords, 0.0),
                       case.initial_condition(coords))


def test_vortex_ic_periodic_consistency():
    case = IsentropicVortex(32)
    geom = case.geometry0()
    coords = case.coordinates(geom, lohi_of([geom.domain]))[:, 0]
    u = case.initial_condition(coords)
    # far from the vortex core the state is the freestream
    corner = u[:, 0, 0]
    rho = corner[0]
    assert rho == pytest.approx(1.0, abs=1e-6)
    assert corner[1] / rho == pytest.approx(case.u0, abs=1e-6)


def test_vortex_exact_advection_identity():
    """Advancing the exact solution by a full period returns the IC."""
    case = IsentropicVortex(32, u0=1.0, v0=0.0)
    geom = case.geometry0()
    coords = case.coordinates(geom, lohi_of([geom.domain]))[:, 0]
    ic = case.initial_condition(coords)
    period = case.prob_extent[0] / case.u0
    assert np.allclose(case.exact_solution(coords, period), ic, atol=1e-12)


def test_dmr_post_shock_state():
    case = DoubleMachReflection((64, 16))
    assert case.post.rho == pytest.approx(8.0, rel=1e-3)
    assert case.post.p == pytest.approx(116.5, rel=1e-3)
    assert case.post_vel[0] == pytest.approx(8.25 * np.sin(np.radians(60)), rel=1e-3)
    assert case.post_vel[1] == pytest.approx(-8.25 * np.cos(np.radians(60)), rel=1e-3)


def test_dmr_initial_shock_geometry():
    case = DoubleMachReflection((64, 16))
    # on the wall the shock starts at x0 = 1/6
    assert case.shock_x(np.array(0.0), 0.0) == pytest.approx(X0)
    # the shock leans right with height at 60 degrees
    assert case.shock_x(np.array(1.0), 0.0) == pytest.approx(X0 + 1 / np.tan(np.radians(60)))
    # and moves right in time at speed 10/sin(60)
    assert case.shock_x(np.array(0.0), 0.1) == pytest.approx(X0 + 10 / np.sin(np.radians(60)) * 0.1)


def test_dmr_ic_separates_states():
    case = DoubleMachReflection((64, 16))
    geom = case.geometry0()
    coords = case.coordinates(geom, lohi_of([geom.domain]))[:, 0]
    u = case.initial_condition(coords)
    rho = u[0]
    assert rho.min() == pytest.approx(1.4)
    assert rho.max() == pytest.approx(8.0, rel=1e-3)
    # left side post-shock, right side pre-shock
    assert rho[0, 0] == pytest.approx(8.0, rel=1e-3)
    assert rho[-1, 0] == pytest.approx(1.4)


def test_dmr_3d_has_periodic_z():
    case = DoubleMachReflection((32, 8, 4))
    assert case.dim == 3
    assert case.periodic == (False, False, True)
    geom = case.geometry0()
    coords = case.coordinates(geom, lohi_of([geom.domain]))[:, 0]
    u = case.initial_condition(coords)
    assert u.shape[0] == 5
    # spanwise homogeneous IC
    assert np.allclose(u[:, :, :, 0], u[:, :, :, 2])


def test_dmr_curvilinear_mapping_fixes_boundaries():
    case = DoubleMachReflection((64, 16), curvilinear=True)
    s = np.stack(np.meshgrid(np.linspace(0, 1, 9), np.linspace(0, 1, 9),
                             indexing="ij"))
    x = case.mapping(s)
    assert np.allclose(x[0][0, :], 0.0)
    assert np.allclose(x[0][-1, :], 4.0)
    assert np.allclose(x[1][:, 0], 0.0)
    assert np.allclose(x[1][:, -1], 1.0)
    # genuinely non-uniform inside
    interior = x[0][1:-1, 0]
    uniform = np.linspace(0, 4, 9)[1:-1]
    assert not np.allclose(interior, uniform)


def test_dmr_wall_bc_reflects():
    case = DoubleMachReflection((64, 16))
    geom = case.geometry0()
    ng = 2
    box = Box((48, 0), (63, 15))  # touches the wall, x > X0
    ba = BoxArray([box])
    dm = DistributionMapping.make(ba, 1)
    state = MultiFab(ba, dm, case.layout.ncons, ng)
    coords = MultiFab(ba, dm, 2, ng)
    fab, cfab = state.fab(0), coords.fab(0)
    cfab.whole()[...] = case.coordinates(geom, lohi_of([fab.grown_box()]))[:, 0]
    fab.whole()[...] = case.initial_condition(cfab.whole())
    # the boundary fill of the one-box level, from its ghost-face table
    case.bc_fill(GhostFaces(state, coords, geom.domain, case.bc_faces), 0.0)
    # ghost below wall mirrors interior with flipped y-momentum
    interior = fab.view(Box((50, 0), (50, 1)))
    ghost = fab.view(Box((50, -2), (50, -1)))
    assert ghost[0, 0, 1] == interior[0, 0, 0]  # density mirrored
    assert ghost[2, 0, 1] == -interior[2, 0, 0]  # y-momentum flipped
    assert ghost[1, 0, 1] == interior[1, 0, 0]  # x-momentum kept


def test_dmr_rejects_bad_dim():
    with pytest.raises(ValueError):
        DoubleMachReflection((64,))


def test_stretched_mapping_monotone_and_fixed_ends():
    m = stretched_mapping((2.0, 1.0), amplitude=0.3)
    s = np.stack(np.meshgrid(np.linspace(0, 1, 33), np.linspace(0, 1, 5),
                             indexing="ij"))
    x = m(s)
    assert x[0].min() == pytest.approx(0.0, abs=1e-12)
    assert x[0].max() == pytest.approx(2.0, abs=1e-12)
    assert np.all(np.diff(x[0][:, 0]) > 0)
    with pytest.raises(ValueError):
        stretched_mapping((1.0,), amplitude=1.5)


def test_tanh_cluster_mapping_clusters_at_wall():
    m = tanh_cluster_mapping((1.0, 1.0), beta=3.0, axis=1)
    s = np.stack(np.meshgrid(np.array([0.5]), np.linspace(0, 1, 41),
                             indexing="ij"))
    y = m(s)[1][0]
    dy = np.diff(y)
    assert dy[0] < dy[-1]  # finer spacing at the wall end
    assert np.all(dy > 0)
    assert y[0] == pytest.approx(0.0, abs=1e-12)
    assert y[-1] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        tanh_cluster_mapping((1.0, 1.0), beta=-1.0)


def test_compression_ramp_mapping():
    m = compression_ramp_mapping((2.0, 1.0), angle_deg=30.0, corner=0.5,
                                 smoothing=0.02)
    s = np.stack(np.meshgrid(np.linspace(0, 1, 41), np.linspace(0, 1, 9),
                             indexing="ij"))
    x = m(s)
    # wall (j=0): flat before the corner, ramping after
    wall_y = x[1][:, 0]
    assert np.allclose(wall_y[:10], 0.0, atol=1e-3)
    assert wall_y[-1] > 0.3  # risen along the 30-degree ramp
    # top boundary stays flat
    assert np.allclose(x[1][:, -1], 1.0)
    # mapping is not folded
    assert np.all(np.diff(x[0][:, 0]) > 0)
