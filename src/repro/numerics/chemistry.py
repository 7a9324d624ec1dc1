"""Chemical source terms (the w_s of Eq. 1).

The paper's governing equations include the rate of production of each
species by chemical reactions; CRoCCo's chemically-reacting mode supplies
them.  We implement the canonical model problem: a single-step,
irreversible, first-order Arrhenius reaction

    A -> B,    dW_A/dt = -k(T) rho_A,    k(T) = A_pre T^b exp(-T_a / T).

Heat release needs no explicit energy source: total energy E already
contains the formation enthalpies (Eq. 2), so converting species with
higher h0 into species with lower h0 at fixed E raises the temperature —
exactly how the conservative formulation releases chemical energy.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.numerics.eos import MixtureEOS
from repro.numerics.state import StateLayout


@dataclass(frozen=True)
class ArrheniusReaction:
    """Single-step irreversible reaction between two species of a mixture.

    ``reactant`` and ``product`` index the mixture's species list.  The
    rate constant is k(T) = pre_exponential * T**temp_exponent *
    exp(-activation_temperature / T) with first-order kinetics in the
    reactant partial density.
    """

    reactant: int = 0
    product: int = 1
    pre_exponential: float = 1.0e6
    temp_exponent: float = 0.0
    activation_temperature: float = 8000.0

    def rate_constant(self, T: np.ndarray) -> np.ndarray:
        T = np.maximum(T, 1e-30)
        return (self.pre_exponential * T**self.temp_exponent
                * np.exp(-self.activation_temperature / T))

    def source(self, layout: StateLayout, eos: MixtureEOS,
               u: np.ndarray) -> np.ndarray:
        """Conservative source array (ncons, ...): only species entries set."""
        if layout.nspecies < 2:
            raise ValueError("a reaction needs at least two species")
        if not isinstance(eos, MixtureEOS):
            raise TypeError("chemistry requires a MixtureEOS")
        for idx in (self.reactant, self.product):
            if not 0 <= idx < layout.nspecies:
                raise ValueError(f"species index {idx} out of range")
        T = eos.temperature(layout, u)
        k = self.rate_constant(T)
        w = k * np.maximum(u[self.reactant], 0.0)
        out = np.zeros_like(u)
        out[self.reactant] = -w
        out[self.product] = w
        return out

    def heat_release(self, eos: MixtureEOS) -> float:
        """Specific heat release q = h0_reactant - h0_product [J/kg]."""
        return (eos.species[self.reactant].h_formation
                - eos.species[self.product].h_formation)
