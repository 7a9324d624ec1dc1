"""Tests for the state layout and equations of state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics.eos import (
    IdealGasEOS,
    MixtureEOS,
    Species,
)
from repro.numerics.state import StateLayout


def test_layout_indices_3d():
    lay = StateLayout(nspecies=1, dim=3)
    assert lay.ncons == 5
    assert lay.rho_s == slice(0, 1)
    assert lay.mom(0) == 1 and lay.mom(2) == 3
    assert lay.energy == 4


def test_layout_indices_multispecies_2d():
    lay = StateLayout(nspecies=3, dim=2)
    assert lay.ncons == 6
    assert lay.mom(1) == 4
    assert lay.energy == 5
    with pytest.raises(IndexError):
        lay.mom(2)


def test_layout_validation():
    with pytest.raises(ValueError):
        StateLayout(nspecies=0)
    with pytest.raises(ValueError):
        StateLayout(dim=4)


def test_layout_derived_quantities():
    lay = StateLayout(nspecies=2, dim=2)
    u = np.zeros((6, 4))
    u[0] = 0.3
    u[1] = 0.7
    u[2] = 2.0  # rho u = 2 -> u = 2
    u[3] = -1.0
    assert np.allclose(lay.density(u), 1.0)
    assert np.allclose(lay.velocity(u)[0], 2.0)
    assert np.allclose(lay.kinetic_energy(u), 0.5 * (4.0 + 1.0))
    assert np.allclose(lay.mass_fractions(u)[0], 0.3)


def test_ideal_gas_roundtrip():
    eos = IdealGasEOS(gamma=1.4)
    lay = StateLayout(dim=3)
    rho = np.array([1.0, 2.0])
    vel = np.array([[0.5, -1.0], [0.0, 2.0], [1.0, 0.0]])
    p = np.array([1.0, 5.0])
    u = eos.conservative(lay, rho, vel, p)
    r2, v2, p2 = eos.primitives(lay, u)
    assert np.allclose(r2, rho)
    assert np.allclose(v2, vel)
    assert np.allclose(p2, p)


def test_ideal_gas_sound_speed():
    eos = IdealGasEOS(gamma=1.4, gas_constant=1.0 / 1.4)
    lay = StateLayout(dim=1)
    u = eos.conservative(lay, np.array([1.0]), np.array([[0.0]]), np.array([1.0 / 1.4]))
    # p = rho a^2 / gamma with a = 1 for this normalization
    assert np.allclose(eos.sound_speed(lay, u), 1.0)
    assert np.allclose(eos.temperature(lay, u), 1.0)


def test_ideal_gas_validation():
    with pytest.raises(ValueError):
        IdealGasEOS(gamma=1.0)


def test_species_derived_properties():
    n2 = Species("N2", molar_mass=0.028, cv=743.0)
    assert n2.gas_constant == pytest.approx(8.31446261815324 / 0.028)
    assert n2.cp == pytest.approx(n2.cv + n2.gas_constant)
    assert 1.3 < n2.gamma < 1.45


def test_mixture_single_species_matches_ideal_gas():
    """A one-species mixture must reduce to the perfect-gas EOS."""
    R = 287.0
    gamma = 1.4
    cv = R / (gamma - 1.0)
    sp = Species("air", molar_mass=8.31446261815324 / R, cv=cv)
    mix = MixtureEOS([sp])
    ideal = IdealGasEOS(gamma=gamma, gas_constant=R)
    lay = StateLayout(nspecies=1, dim=2)
    rho = np.array([1.2, 0.5])
    vel = np.array([[10.0, -5.0], [3.0, 0.0]])
    T = np.array([300.0, 1200.0])
    u = mix.conservative(lay, rho[None], vel, T)
    assert np.allclose(mix.temperature(lay, u), T)
    assert np.allclose(mix.pressure(lay, u), rho * R * T)
    assert np.allclose(mix.sound_speed(lay, u), np.sqrt(gamma * R * T))
    assert np.allclose(ideal.pressure(lay, u), mix.pressure(lay, u))


def test_mixture_formation_enthalpy_roundtrip():
    """Eq. 2: formation heat shifts E but not T."""
    s1 = Species("A", molar_mass=0.03, cv=700.0, h_formation=5e6)
    s2 = Species("B", molar_mass=0.02, cv=1000.0, h_formation=-1e6)
    mix = MixtureEOS([s1, s2])
    lay = StateLayout(nspecies=2, dim=1)
    rho_s = np.array([[0.4], [0.6]])
    vel = np.array([[100.0]])
    T = np.array([800.0])
    u = mix.conservative(lay, rho_s, vel, T)
    assert np.allclose(mix.temperature(lay, u), T)
    expected_formation = 0.4 * 5e6 + 0.6 * (-1e6)
    assert np.allclose(mix.formation_energy(lay, u), expected_formation)


def test_mixture_gamma_between_species_gammas():
    s1 = Species("A", molar_mass=0.03, cv=700.0)
    s2 = Species("B", molar_mass=0.004, cv=3000.0)
    mix = MixtureEOS([s1, s2])
    lay = StateLayout(nspecies=2, dim=1)
    u = mix.conservative(lay, np.array([[0.5], [0.5]]), np.array([[0.0]]),
                         np.array([500.0]))
    g = float(mix.mixture_gamma(lay, u)[0])
    assert min(s1.gamma, s2.gamma) <= g <= max(s1.gamma, s2.gamma)


def test_mixture_layout_mismatch():
    mix = MixtureEOS([Species("A", 0.03, 700.0)])
    lay = StateLayout(nspecies=2, dim=1)
    with pytest.raises(ValueError):
        mix.temperature(lay, np.zeros((4, 3)))


def test_mixture_needs_species():
    with pytest.raises(ValueError):
        MixtureEOS([])


@settings(max_examples=30)
@given(
    st.floats(0.1, 10.0),
    st.floats(-3.0, 3.0),
    st.floats(0.1, 10.0),
)
def test_ideal_gas_roundtrip_property(rho, u_vel, p):
    eos = IdealGasEOS()
    lay = StateLayout(dim=1)
    cons = eos.conservative(lay, np.array([rho]), np.array([[u_vel]]), np.array([p]))
    r, v, pp = eos.primitives(lay, cons)
    assert np.isclose(r[0], rho)
    assert np.isclose(v[0, 0], u_vel)
    assert np.isclose(pp[0], p, rtol=1e-10, atol=1e-12)
    assert eos.sound_speed(lay, cons)[0] > 0
