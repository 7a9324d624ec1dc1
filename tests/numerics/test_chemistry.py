"""Tests for the Arrhenius chemistry source and the reacting case."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from repro.core.diagnostics import sample
from repro.numerics.chemistry import ArrheniusReaction
from repro.numerics.eos import MixtureEOS, Species
from repro.numerics.state import StateLayout


def make_mix(q=1.5e6):
    return MixtureEOS([
        Species("A", 0.029, 718.0, h_formation=q),
        Species("B", 0.029, 718.0, h_formation=0.0),
    ])


LAY = StateLayout(nspecies=2, dim=1)


def test_rate_constant_arrhenius_form():
    rx = ArrheniusReaction(pre_exponential=2.0, temp_exponent=1.0,
                           activation_temperature=1000.0)
    T = np.array([500.0])
    expected = 2.0 * 500.0 * np.exp(-2.0)
    assert rx.rate_constant(T)[0] == pytest.approx(expected)


def test_source_conserves_mass_and_energy():
    mix = make_mix()
    rx = ArrheniusReaction()
    u = mix.conservative(LAY, np.array([[0.7], [0.3]]), np.array([[10.0]]),
                         np.array([1500.0]))
    w = rx.source(LAY, mix, u)
    # total mass production is zero; momentum and energy sources are zero
    assert w[0, 0] + w[1, 0] == pytest.approx(0.0, abs=1e-18)
    assert w[2, 0] == 0.0
    assert w[3, 0] == 0.0
    # reactant is consumed
    assert w[0, 0] < 0


def test_source_validation():
    mix = make_mix()
    rx = ArrheniusReaction(reactant=0, product=5)
    u = mix.conservative(LAY, np.ones((2, 4)), np.zeros((1, 4)),
                         np.full(4, 300.0))
    with pytest.raises(ValueError):
        rx.source(LAY, mix, u)
    with pytest.raises(ValueError):
        ArrheniusReaction().source(StateLayout(nspecies=1, dim=1), mix, u)


def test_heat_release():
    mix = make_mix(q=2.0e6)
    assert ArrheniusReaction().heat_release(mix) == pytest.approx(2.0e6)


def test_constant_volume_ignition_matches_ode():
    """0D constant-volume ignition: RK3 + source vs scipy's ODE solution."""
    mix = make_mix(q=1.0e6)
    rx = ArrheniusReaction(pre_exponential=1e3, activation_temperature=3000.0)
    rho = 1.0
    T0 = 1200.0
    u = mix.conservative(LAY, np.array([[rho], [0.0]]), np.zeros((1, 1)),
                         np.array([T0]))
    E0 = float(u[3, 0])

    # integrate with the solver's own RK3
    from repro.numerics.rk3 import advance

    # three induction times 1/k(T0)
    t_end = 3.0 / float(rx.rate_constant(np.asarray(T0)))
    nsteps = 400
    dt = t_end / nsteps
    state = u.copy()
    for _ in range(nsteps):
        state = advance(state, lambda s: rx.source(LAY, mix, s), dt)

    # reference: d(rho_A)/dt = -k(T(rho_A)) rho_A with T from fixed E
    cv = 718.0

    def T_of(rho_a):
        return (E0 - rho_a * 1.0e6) / (rho * cv)

    def rhs(t, y):
        return [-rx.rate_constant(np.asarray(T_of(y[0]))) * y[0]]

    sol = solve_ivp(rhs, (0, t_end), [rho], rtol=1e-10, atol=1e-12)
    assert state[0, 0] == pytest.approx(sol.y[0, -1], rel=1e-4)
    # temperature rose by the heat release of the burned fraction
    T_end = float(mix.temperature(LAY, state)[0])
    burned = 1.0 - state[0, 0] / rho
    assert T_end == pytest.approx(T0 + burned * 1.0e6 / cv, rel=1e-10)
    # energy is exactly conserved (source only exchanges formation energy)
    assert float(state[3, 0]) == pytest.approx(E0, rel=1e-14)


def test_ignition_front_case_burns_and_conserves():
    from repro.cases.reacting import IgnitionFront
    from repro.core.crocco import Crocco, CroccoConfig

    case = IgnitionFront(ncells=64)
    sim = Crocco(case, CroccoConfig(version="1.1", max_grid_size=64))
    sim.initialize()
    u0 = sim.state[0].fab(0).valid().copy()
    burned0 = case.burned_fraction(u0)
    mass0 = sample(sim).mass
    for _ in range(30):
        sim.step()
    u1 = sim.state[0].fab(0).valid()
    burned1 = case.burned_fraction(u1)
    # the hot spot ignites the mixture
    assert burned1 > burned0 + 1e-4
    # species mass exchange conserves total mass
    assert sample(sim).mass == pytest.approx(mass0, rel=1e-6)
    # temperature peak exceeds the initial hot spot (heat release)
    T = case.eos.temperature(case.layout, u1)
    assert T.max() > case.T_spot
    assert np.isfinite(u1).all()
