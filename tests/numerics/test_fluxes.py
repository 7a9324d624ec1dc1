"""Tests for the convective flux divergence operator."""

import numpy as np
import pytest

from repro.numerics.cfl import local_max_rate
from repro.numerics.eos import IdealGasEOS
from repro.numerics.fluxes import ConvectiveFlux, contravariant, curvilinear_flux, wave_speed
from repro.numerics.metrics import CartesianMetrics, CurvilinearMetrics
from repro.numerics.state import StateLayout
from repro.numerics.weno import WenoScheme

NG = 4
EOS = IdealGasEOS(gamma=1.4)


def periodic_state_1d(n, rho_fn, u_fn, p_fn, ng=NG):
    """1D conservative state with periodic ghost fill."""
    lay = StateLayout(dim=1)
    i = np.arange(-ng, n + ng)
    x = ((i % n) + 0.5) / n  # periodic wrap
    u = EOS.conservative(lay, rho_fn(x), u_fn(x)[None], p_fn(x))
    return lay, u


def test_contravariant_and_flux_cartesian_1d():
    lay = StateLayout(dim=1)
    n = 16
    rho = np.ones(n)
    vel = np.full((1, n), 2.0)
    p = np.ones(n)
    u = EOS.conservative(lay, rho, vel, p)
    m = CartesianMetrics((0.1,)).m(0)
    f = curvilinear_flux(lay, u, vel, p, np.broadcast_to(m, (1, n)))
    # J/dx = 1 -> flux = physical flux: rho u = 2, rho u^2 + p = 5
    assert np.allclose(f[0], 2.0)
    assert np.allclose(f[1], 5.0)
    E = EOS.total_energy(rho, vel, p)
    assert np.allclose(f[2], (E + p) * 2.0)


def test_wave_speed_cartesian():
    lay = StateLayout(dim=1)
    u = EOS.conservative(lay, np.array([1.0]), np.array([[3.0]]), np.array([1.0]))
    met = CartesianMetrics((0.5,))
    lam = wave_speed(lay.velocity(u), EOS.sound_speed(lay, u), met.m(0),
                     met.jacobian())
    a = np.sqrt(1.4)
    assert np.allclose(lam, (3.0 + a) / 0.5)


def test_uniform_state_zero_divergence():
    """Freestream preservation on a Cartesian grid."""
    lay = StateLayout(dim=2)
    n = 16
    shape = (n + 2 * NG, n + 2 * NG)
    rho = np.ones(shape)
    vel = np.stack([np.full(shape, 0.7), np.full(shape, -0.3)])
    p = np.full(shape, 2.0)
    u = EOS.conservative(lay, rho, vel, p)
    op = ConvectiveFlux()
    met = CartesianMetrics((1.0 / n, 1.0 / n))
    for d in range(2):
        dudt = op.divergence(lay, EOS, u, met, d, NG)
        assert dudt.shape == (4, n, n)
        assert np.abs(dudt).max() < 1e-11


def test_entropy_wave_advection_accuracy():
    """rho varying, u and p constant: d(rho)/dt = -u d(rho)/dx exactly."""
    errs = []
    for n in (32, 64):
        lay, u = periodic_state_1d(
            n,
            rho_fn=lambda x: 1.0 + 0.2 * np.sin(2 * np.pi * x),
            u_fn=lambda x: np.full_like(x, 0.9),
            p_fn=lambda x: np.ones_like(x),
        )
        op = ConvectiveFlux()
        met = CartesianMetrics((1.0 / n,))
        dudt = op.divergence(lay, EOS, u, met, 0, NG)
        x = (np.arange(n) + 0.5) / n
        exact = -0.9 * 0.2 * 2 * np.pi * np.cos(2 * np.pi * x)
        errs.append(np.abs(dudt[0] - exact).max())
    order = np.log2(errs[0] / errs[1])
    assert order > 3.0  # symbo is 4th order


def test_conservation_periodic():
    """Total update sums to zero on a periodic domain (telescoping fluxes)."""
    n = 48
    lay, u = periodic_state_1d(
        n,
        rho_fn=lambda x: 1.0 + 0.3 * np.sin(2 * np.pi * x) ** 2,
        u_fn=lambda x: 0.5 + 0.2 * np.cos(2 * np.pi * x),
        p_fn=lambda x: 1.0 + 0.1 * np.sin(4 * np.pi * x),
    )
    op = ConvectiveFlux()
    met = CartesianMetrics((1.0 / n,))
    dudt = op.divergence(lay, EOS, u, met, 0, NG)
    # conservation: sum over cells of J * dU/dt telescopes to zero
    assert np.abs(dudt.sum(axis=1)).max() < 1e-10 * n


def test_curvilinear_freestream_preservation():
    """Uniform flow on a wavy curvilinear grid stays (nearly) uniform."""
    lay = StateLayout(dim=2)
    n = 24
    ntot = n + 2 * NG
    ii, jj = np.meshgrid(np.arange(ntot) + 0.5, np.arange(ntot) + 0.5,
                         indexing="ij")
    x = ii + 0.15 * np.sin(2 * np.pi * jj / ntot) * ntot / (2 * np.pi)
    y = jj + 0.15 * np.sin(2 * np.pi * ii / ntot) * ntot / (2 * np.pi)
    met = CurvilinearMetrics.from_coordinates(np.stack([x, y]))
    shape = (ntot, ntot)
    u = EOS.conservative(
        lay, np.ones(shape), np.stack([np.full(shape, 1.0), np.full(shape, 0.5)]),
        np.full(shape, 1.0),
    )
    op = ConvectiveFlux()
    total = np.zeros((4, n, n))
    for d in range(2):
        total += op.divergence(lay, EOS, u, met, d, NG)
    # the discrete GCL is not exactly satisfied, but residuals must be tiny
    # relative to flux magnitudes (|F| ~ |m| |u| ~ O(1) per unit cell)
    assert np.abs(total).max() < 5e-3


def test_divergence_requires_ghosts():
    lay = StateLayout(dim=1)
    u = np.ones((3, 10))
    with pytest.raises(ValueError):
        ConvectiveFlux().divergence(lay, EOS, u, CartesianMetrics((0.1,)), 0, 2)


def test_max_wave_speed_sum():
    lay = StateLayout(dim=2)
    shape = (8, 8)
    u = EOS.conservative(
        lay, np.ones(shape), np.stack([np.full(shape, 2.0), np.zeros(shape)]),
        np.ones(shape),
    )
    got = local_max_rate(lay, EOS, u, CartesianMetrics((0.5, 0.25)))
    a = np.sqrt(1.4)
    assert got == pytest.approx((2.0 + a) / 0.5 + a / 0.25)


def test_js5_variant_runs():
    n = 32
    lay, u = periodic_state_1d(
        n,
        rho_fn=lambda x: 1.0 + 0.1 * np.sin(2 * np.pi * x),
        u_fn=lambda x: np.zeros_like(x),
        p_fn=lambda x: np.ones_like(x),
    )
    op = ConvectiveFlux(scheme=WenoScheme(variant="js5"))
    dudt = op.divergence(lay, EOS, u, CartesianMetrics((1.0 / n,)), 0, NG)
    assert dudt.shape == (3, n)
    assert np.isfinite(dudt).all()


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=25)
@given(st.floats(0.1, 5.0), st.floats(-2.0, 2.0), st.floats(0.1, 5.0))
def test_cartesian_flux_matches_analytic_euler(rho, uvel, p):
    """With identity metrics, Fhat/J equals the textbook Euler flux / dx."""
    lay = StateLayout(dim=1)
    u = EOS.conservative(lay, np.array([rho]), np.array([[uvel]]), np.array([p]))
    dx = 0.25
    met = CartesianMetrics((dx,))
    m = np.broadcast_to(met.m(0), (1, 1))
    from repro.numerics.fluxes import curvilinear_flux

    f = curvilinear_flux(lay, u, lay.velocity(u), EOS.pressure(lay, u), m)
    # J = dx, m = J/dx = 1: Fhat = physical flux
    E = float(u[2, 0])
    expected = np.array([
        rho * uvel,
        rho * uvel**2 + p,
        (E + p) * uvel,
    ])
    assert np.allclose(f[:, 0], expected, rtol=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 1000))
def test_fused_and_distributed_forms_agree_to_roundoff(seed):
    """The two split forms are the same mathematics: differences are O(ulp)."""
    rng = np.random.default_rng(seed)
    n = 32
    lay = StateLayout(dim=1)
    x = ((np.arange(-NG, n + NG) % n) + 0.5) / n
    rho = 1.0 + 0.3 * rng.random() * np.sin(2 * np.pi * x)
    vel = 0.5 * rng.random() * np.cos(2 * np.pi * x)
    p = 1.0 + 0.2 * rng.random() * np.sin(4 * np.pi * x)
    u = EOS.conservative(lay, rho, vel[None], p)
    met = CartesianMetrics((1.0 / n,))
    fused = ConvectiveFlux(split_form="fused").divergence(lay, EOS, u, met, 0, NG)
    dist = ConvectiveFlux(split_form="distributed").divergence(lay, EOS, u, met, 0, NG)
    scale = np.abs(fused).max() + 1.0
    assert np.allclose(fused, dist, atol=1e-10 * scale)


def test_unknown_split_form_rejected():
    lay = StateLayout(dim=1)
    u = EOS.conservative(lay, np.ones(12), np.zeros((1, 12)), np.ones(12))
    with pytest.raises(ValueError):
        ConvectiveFlux(split_form="simd").divergence(
            lay, EOS, u, CartesianMetrics((0.1,)), 0, 4
        )
