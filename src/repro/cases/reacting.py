"""Reacting flow: a 1D ignition/deflagration problem.

Exercises the multi-species machinery of Eq. 1 end to end: two-species
MixtureEOS with formation enthalpies, Fickian species diffusion with
enthalpy transport, and the Arrhenius source w_s.  A hot spot in a
premixed reactant ignites; the reaction front releases heat, converting
species A to B and driving pressure waves outward.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cases.base import Case, zero_gradient
from repro.numerics.chemistry import ArrheniusReaction
from repro.numerics.eos import MixtureEOS, Species
from repro.numerics.state import StateLayout
from repro.numerics.viscous import ViscousFlux, constant_viscosity


class IgnitionFront(Case):
    """Hot-spot ignition of a premixed A -> B reaction on x in [0, 1]."""

    name = "ignition"
    domain_cells: Tuple[int, ...] = (128,)
    prob_extent: Tuple[float, ...] = (1.0,)
    periodic: Tuple[bool, ...] = (False,)
    bc_faces = ((0, "lo"), (0, "hi"))
    tag_threshold = 0.05
    cfl = 0.4

    def __init__(self, ncells: int = 128, T0: float = 300.0,
                 T_spot: float = 2000.0, spot_width: float = 0.05,
                 heat_release: float = 1.5e6, activation_temp: float = 4000.0,
                 pre_exp: float = 2.0e5, mu: float = 5e-5) -> None:
        self.domain_cells = (ncells,)
        self.T0 = T0
        self.T_spot = T_spot
        self.spot_width = spot_width
        self._species = (
            Species("A", molar_mass=0.029, cv=718.0, h_formation=heat_release),
            Species("B", molar_mass=0.029, cv=718.0, h_formation=0.0),
        )
        self.reaction = ArrheniusReaction(
            reactant=0, product=1, pre_exponential=pre_exp,
            activation_temperature=activation_temp,
        )
        self._mu = mu
        super().__init__()
        self.layout = StateLayout(nspecies=2, dim=1)

    def make_eos(self):
        return MixtureEOS(self._species)

    def make_viscous(self) -> Optional[ViscousFlux]:
        return ViscousFlux(constant_viscosity(self._mu), prandtl=0.72,
                           schmidt=0.9, include_species_diffusion=True)

    # -- state ------------------------------------------------------------
    def initial_condition(self, coords: np.ndarray, time: float = 0.0) -> np.ndarray:
        x = coords[0]
        # Gaussian hot spot at the domain center
        T = self.T0 + (self.T_spot - self.T0) * np.exp(
            -0.5 * ((x - 0.5) / self.spot_width) ** 2
        )
        rho = np.full_like(x, 1.0)
        # pure reactant everywhere; the spot ignites it
        rho_s = np.stack([rho, np.zeros_like(rho)])
        vel = np.zeros((1,) + x.shape)
        return self.eos.conservative(self.layout, rho_s, vel, T)

    def bc_fill(self, faces, time) -> None:
        """Transmissive boundaries (waves leave the domain)."""
        zero_gradient(faces, 0)

    def source(self, u: np.ndarray, coords: np.ndarray, time: float,
               metrics=None) -> Optional[np.ndarray]:
        return self.reaction.source(self.layout, self.eos, u)

    # -- diagnostics --------------------------------------------------------
    def burned_fraction(self, u: np.ndarray) -> float:
        """Mass fraction of product B over the sampled region."""
        return float(u[1].sum() / u[self.layout.rho_s].sum())
