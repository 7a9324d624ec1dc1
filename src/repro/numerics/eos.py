"""Equations of state and thermodynamics.

The paper's total energy (Eq. 2):

    E = sum_s rho_s cv_s T + 1/2 rho u_i u_i + sum_s rho_s h0_s

with cv_s the constant-volume specific heat and h0_s the heat of
formation of species s.  :class:`IdealGasEOS` is the single-species
calorically-perfect special case used by the double-Mach-reflection test
problem; :class:`MixtureEOS` implements the multi-species form with
per-species gas constants, specific heats, and formation enthalpies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.numerics.state import StateLayout

#: universal gas constant [J / (mol K)]
R_UNIVERSAL = 8.31446261815324

#: the pressure the ideal-gas sound speed is never taken below
PRESSURE_FLOOR = 1e-300


@dataclass(frozen=True)
class Species:
    """Thermodynamic data for one chemical species."""

    name: str
    molar_mass: float  # kg/mol
    cv: float  # J/(kg K), constant-volume specific heat
    h_formation: float = 0.0  # J/kg, heat of formation h0_s

    @property
    def gas_constant(self) -> float:
        """Specific gas constant R_s = R / M_s."""
        return R_UNIVERSAL / self.molar_mass

    @property
    def cp(self) -> float:
        return self.cv + self.gas_constant

    @property
    def gamma(self) -> float:
        return self.cp / self.cv


class IdealGasEOS:
    """Single-species calorically perfect ideal gas.

    Works in nondimensional units by default (R = 1/gamma so that a=1 at
    rho=1, p=1/gamma), which is the standard normalization for the
    Woodward-Colella DMR setup.
    """

    def __init__(self, gamma: float = 1.4, gas_constant: float = 1.0) -> None:
        if gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        self.gamma = gamma
        self.R = gas_constant
        self.cv = gas_constant / (gamma - 1.0)
        self.cp = self.cv + gas_constant

    # -- conversions on conservative state arrays -----------------------------
    def pressure(self, layout: StateLayout, u: np.ndarray) -> np.ndarray:
        """p = (gamma - 1)(E - 1/2 rho |u|^2)."""
        e_int = u[layout.energy] - layout.kinetic_energy(u)
        return (self.gamma - 1.0) * e_int

    def temperature(self, layout: StateLayout, u: np.ndarray) -> np.ndarray:
        return self.pressure(layout, u) / (layout.density(u) * self.R)

    def sound_speed(self, layout: StateLayout, u: np.ndarray,
                    rho: Optional[np.ndarray] = None,
                    p: Optional[np.ndarray] = None) -> np.ndarray:
        """a = sqrt(gamma max(p, floor) / rho); ``rho`` and ``p``, when
        given, are those :meth:`primitives` returned for ``u``."""
        if rho is None or p is None:
            rho, p = layout.density(u), self.pressure(layout, u)
        return np.sqrt(self.gamma * np.maximum(p, PRESSURE_FLOOR) / rho)

    def total_energy(self, rho: np.ndarray, vel: np.ndarray, p: np.ndarray) -> np.ndarray:
        """E from primitives; ``vel`` has shape (dim, ...)."""
        return p / (self.gamma - 1.0) + 0.5 * rho * (vel**2).sum(axis=0)

    def conservative(self, layout: StateLayout, rho, vel, p) -> np.ndarray:
        """Pack primitives into a conservative state array."""
        rho = np.asarray(rho, dtype=np.float64)
        vel = np.asarray(vel, dtype=np.float64)
        p = np.asarray(p, dtype=np.float64)
        u = np.zeros((layout.ncons,) + rho.shape, dtype=np.float64)
        u[layout.rho_s] = rho[None]
        u[layout.mom_slice] = rho[None] * vel
        u[layout.energy] = self.total_energy(rho, vel, p)
        return u

    def primitives(self, layout: StateLayout, u: np.ndarray):
        """(rho, vel, p) from a conservative state array."""
        rho = layout.density(u)
        vel = layout.velocity(u)
        p = self.pressure(layout, u)
        return rho, vel, p


class MixtureEOS:
    """Multi-species mixture of thermally perfect gases (Eq. 2 of the paper)."""

    def __init__(self, species: Sequence[Species]) -> None:
        if not species:
            raise ValueError("need at least one species")
        self.species = tuple(species)
        self._cv = np.array([s.cv for s in species])
        self._R = np.array([s.gas_constant for s in species])
        self._h0 = np.array([s.h_formation for s in species])

    @property
    def nspecies(self) -> int:
        return len(self.species)

    def _check(self, layout: StateLayout) -> None:
        if layout.nspecies != self.nspecies:
            raise ValueError(
                f"layout has {layout.nspecies} species, EOS has {self.nspecies}"
            )

    def mixture_cv(self, layout: StateLayout, u: np.ndarray) -> np.ndarray:
        """Mass-fraction-weighted cv."""
        self._check(layout)
        y = layout.mass_fractions(u)
        return np.tensordot(self._cv, y, axes=(0, 0))

    def mixture_R(self, layout: StateLayout, u: np.ndarray) -> np.ndarray:
        self._check(layout)
        y = layout.mass_fractions(u)
        return np.tensordot(self._R, y, axes=(0, 0))

    def formation_energy(self, layout: StateLayout, u: np.ndarray) -> np.ndarray:
        """sum_s rho_s h0_s."""
        self._check(layout)
        shape = (-1,) + (1,) * (u.ndim - 1)
        return (u[layout.rho_s] * self._h0.reshape(shape)).sum(axis=0)

    def temperature(self, layout: StateLayout, u: np.ndarray) -> np.ndarray:
        """Invert Eq. 2: T = (E - KE - sum rho_s h0_s) / (rho cv_mix)."""
        self._check(layout)
        e_th = u[layout.energy] - layout.kinetic_energy(u) - self.formation_energy(layout, u)
        rho = layout.density(u)
        return e_th / (rho * self.mixture_cv(layout, u))

    def pressure(self, layout: StateLayout, u: np.ndarray) -> np.ndarray:
        """p = rho R_mix T (Dalton's law for ideal mixtures)."""
        return layout.density(u) * self.mixture_R(layout, u) * self.temperature(layout, u)

    def mixture_gamma(self, layout: StateLayout, u: np.ndarray) -> np.ndarray:
        cv = self.mixture_cv(layout, u)
        return (cv + self.mixture_R(layout, u)) / cv

    def sound_speed(self, layout: StateLayout, u: np.ndarray,
                    rho: Optional[np.ndarray] = None,
                    p: Optional[np.ndarray] = None) -> np.ndarray:
        """a = sqrt(gamma_mix R_mix T); ``rho`` and ``p`` (the ideal gas's
        shortcut) are not needed here."""
        g = self.mixture_gamma(layout, u)
        return np.sqrt(g * self.mixture_R(layout, u) * self.temperature(layout, u))

    def total_energy(self, layout: StateLayout, rho_s: np.ndarray, vel: np.ndarray,
                     temperature: np.ndarray) -> np.ndarray:
        """E from species densities, velocity, and temperature (Eq. 2)."""
        shape = (-1,) + (1,) * (rho_s.ndim - 1)
        rho = rho_s.sum(axis=0)
        thermal = (rho_s * self._cv.reshape(shape)).sum(axis=0) * temperature
        kinetic = 0.5 * rho * (vel**2).sum(axis=0)
        formation = (rho_s * self._h0.reshape(shape)).sum(axis=0)
        return thermal + kinetic + formation

    def conservative(self, layout: StateLayout, rho_s, vel, temperature) -> np.ndarray:
        self._check(layout)
        rho_s = np.asarray(rho_s, dtype=np.float64)
        vel = np.asarray(vel, dtype=np.float64)
        temperature = np.asarray(temperature, dtype=np.float64)
        rho = rho_s.sum(axis=0)
        u = np.empty((layout.ncons,) + rho.shape, dtype=np.float64)
        u[layout.rho_s] = rho_s
        u[layout.mom_slice] = rho[None] * vel
        u[layout.energy] = self.total_energy(layout, rho_s, vel, temperature)
        return u

    def primitives(self, layout: StateLayout, u: np.ndarray):
        """(rho, vel, p) — the interface the flux kernels consume."""
        return layout.density(u), layout.velocity(u), self.pressure(layout, u)
