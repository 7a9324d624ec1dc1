"""Tests for viscous fluxes, RK3 integration, and ComputeDt."""

import numpy as np
import pytest

from repro.mpi.comm import Communicator
from repro.numerics.cfl import compute_dt, local_max_rate
from repro.numerics.eos import IdealGasEOS, MixtureEOS, Species
from repro.numerics.metrics import CartesianMetrics
from repro.numerics.rk3 import NSTAGES, RK3_A, RK3_B, advance, rk3_stage
from repro.numerics.state import StateLayout
from repro.numerics.viscous import ViscousFlux, constant_viscosity

NG = 4
EOS = IdealGasEOS(gamma=1.4)


def shear_layer_state(n, amp=0.1, ng=NG):
    """2D state with u_x = amp*sin(2 pi y), constant rho, p (periodic)."""
    lay = StateLayout(dim=2)
    ntot = n + 2 * ng
    jj = ((np.arange(-ng, n + ng) % n) + 0.5) / n
    ux = amp * np.sin(2 * np.pi * jj)[None, :] * np.ones((ntot, 1))
    vel = np.stack([ux, np.zeros_like(ux)])
    rho = np.ones((ntot, ntot))
    p = np.full((ntot, ntot), 10.0)  # high p: nearly isothermal
    return lay, EOS.conservative(lay, rho, vel, p)


def test_viscous_shear_diffusion_accuracy():
    """mom_x RHS must converge to mu * d2(u)/dy2 at 4th order."""
    mu = 0.01
    errs = []
    for n in (16, 32):
        lay, u = shear_layer_state(n)
        op = ViscousFlux(constant_viscosity(mu), prandtl=0.72)
        met = CartesianMetrics((1.0 / n, 1.0 / n))
        rhs = op.divergence(lay, EOS, u, met, NG)
        y = (np.arange(n) + 0.5) / n
        exact = -mu * 0.1 * (2 * np.pi) ** 2 * np.sin(2 * np.pi * y)
        errs.append(np.abs(rhs[lay.mom(0)][0, :] - exact).max())
    assert np.log2(errs[0] / errs[1]) > 3.5


def test_viscous_uniform_state_zero():
    lay = StateLayout(dim=2)
    n = 12
    shape = (n + 2 * NG, n + 2 * NG)
    u = EOS.conservative(lay, np.ones(shape),
                         np.stack([np.full(shape, 1.0), np.full(shape, -2.0)]),
                         np.ones(shape))
    op = ViscousFlux(constant_viscosity(0.05))
    rhs = op.divergence(lay, EOS, u, CartesianMetrics((0.1, 0.1)), NG)
    assert np.abs(rhs).max() < 1e-12


def test_viscous_heat_conduction():
    """Temperature gradient drives energy diffusion: dE/dt = kappa T''."""
    lay = StateLayout(dim=1)
    n = 64
    ng = NG
    x = ((np.arange(-ng, n + ng) % n) + 0.5) / n
    rho = np.ones_like(x)
    T = 1.0 + 0.1 * np.sin(2 * np.pi * x)
    p = rho * EOS.R * T
    u = EOS.conservative(lay, rho, np.zeros((1, len(x))), p)
    mu = 0.02
    Pr = 0.72
    op = ViscousFlux(constant_viscosity(mu), prandtl=Pr)
    rhs = op.divergence(lay, EOS, u, CartesianMetrics((1.0 / n,)), ng)
    kappa = mu * EOS.cp / Pr
    xs = (np.arange(n) + 0.5) / n
    exact = -kappa * 0.1 * (2 * np.pi) ** 2 * np.sin(2 * np.pi * xs)
    assert np.allclose(rhs[lay.energy], exact, rtol=2e-2, atol=1e-5)


def test_viscous_dissipation_reduces_kinetic_energy():
    lay, u = shear_layer_state(32)
    op = ViscousFlux(constant_viscosity(0.05))
    rhs = op.divergence(lay, EOS, u, CartesianMetrics((1.0 / 32, 1.0 / 32)), NG)
    vel = lay.velocity(u)[:, NG:-NG, NG:-NG]
    # d(KE)/dt contribution of momentum RHS: u_i * rhs_mom_i summed < 0
    ke_rate = (vel[0] * rhs[lay.mom(0)] + vel[1] * rhs[lay.mom(1)]).sum()
    assert ke_rate < 0


def test_viscous_species_diffusion_conserves_mass():
    """Fickian fluxes of a 2-species mixture sum to ~zero net species change."""
    sp = [Species("A", 0.028, 743.0), Species("B", 0.032, 650.0)]
    mix = MixtureEOS(sp)
    lay = StateLayout(nspecies=2, dim=1)
    n = 32
    ng = NG
    x = ((np.arange(-ng, n + ng) % n) + 0.5) / n
    ya = 0.5 + 0.3 * np.sin(2 * np.pi * x)
    rho = np.ones_like(x)
    rho_s = np.stack([rho * ya, rho * (1 - ya)])
    u = mix.conservative(lay, rho_s, np.zeros((1, len(x))), np.full_like(x, 300.0))
    op = ViscousFlux(constant_viscosity(1e-3), include_species_diffusion=True)
    rhs = op.divergence(lay, mix, u, CartesianMetrics((1.0 / n,)), ng)
    # each species flux is periodic -> integral of its divergence ~ 0
    assert abs(rhs[0].sum()) < 1e-10
    assert abs(rhs[1].sum()) < 1e-10
    # but pointwise the species diffuse
    assert np.abs(rhs[0]).max() > 0


def test_viscous_requires_ghosts():
    lay = StateLayout(dim=1)
    op = ViscousFlux(constant_viscosity(0.1))
    with pytest.raises(ValueError):
        op.divergence(lay, EOS, np.ones((3, 10)), CartesianMetrics((0.1,)), 2)


# -- RK3 ----------------------------------------------------------------------


def test_rk3_coefficients():
    assert RK3_A == (0.0, -5.0 / 9.0, -153.0 / 128.0)
    assert RK3_B == (1.0 / 3.0, 15.0 / 16.0, 8.0 / 15.0)
    assert NSTAGES == 3


def test_rk3_exact_for_linear_rhs_in_t():
    """du/dt = c integrates exactly."""
    u0 = np.array([1.0])
    out = advance(u0, lambda u: np.array([2.5]), dt=0.3)
    assert np.allclose(out, 1.0 + 2.5 * 0.3)


def test_rk3_third_order_convergence():
    """du/dt = -u: global error order ~3."""
    errs = []
    for nsteps in (16, 32):
        dt = 1.0 / nsteps
        u = np.array([1.0])
        for _ in range(nsteps):
            u = advance(u, lambda v: -v, dt)
        errs.append(abs(u[0] - np.exp(-1.0)))
    assert 2.7 < np.log2(errs[0] / errs[1]) < 3.3


def test_rk3_stage_in_place():
    u = np.ones(4)
    du = np.zeros(4)
    rhs = np.full(4, 2.0)
    rk3_stage(u, du, rhs, 0.1, 0)
    assert np.allclose(du, 0.2)
    assert np.allclose(u, 1.0 + 0.2 / 3.0)
    with pytest.raises(ValueError):
        rk3_stage(u, du, rhs, 0.1, 3)


def test_rk3_linear_stability_at_cfl_limit():
    """Advection eigenvalue on the imaginary axis: stable for |lam dt| < ~1.7."""
    lam = 1j * 1.5
    amp = 1.0 + 0.0j
    # amplification factor of RK3 for dy/dt = lam y
    z = lam
    g = 1 + z + z**2 / 2 + z**3 / 6
    assert abs(g) <= 1.0 + 1e-9


# -- ComputeDt --------------------------------------------------------------


def test_local_max_rate():
    lay = StateLayout(dim=1)
    u = EOS.conservative(lay, np.array([1.0, 1.0]), np.array([[0.0, 2.0]]),
                         np.array([1.0, 1.0]))
    met = CartesianMetrics((0.1,))
    rate = local_max_rate(lay, EOS, u, met)
    a = np.sqrt(1.4)
    assert rate == pytest.approx((2.0 + a) / 0.1)


def test_compute_dt_global_min():
    comm = Communicator(4, ranks_per_node=2)
    dt = compute_dt([10.0, 40.0, 20.0, 5.0], cfl=0.8, comm=comm)
    assert dt == pytest.approx(0.8 / 40.0)
    # traffic from the reduce tree was recorded
    assert comm.ledger.by_kind()["reduce"][0] > 0


def test_compute_dt_idle_ranks_and_cap():
    comm = Communicator(1, 1)
    assert compute_dt([4.0], cfl=1.0, comm=comm, dt_max=0.1) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        compute_dt([0.0], cfl=1.0, comm=comm)
    with pytest.raises(ValueError):
        compute_dt([1.0], cfl=-1.0, comm=comm)
