"""Conservative state vector layout.

CRoCCo solves the conservation equations for species mass, momentum, and
total energy (Eq. 1 of the paper).  The conservative state is laid out as

    [rho_1 .. rho_ns,  rho*u_1 .. rho*u_dim,  E]

so a single-species 3D run has the familiar 5 components.  The layout
object centralizes component indexing for every kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np


@dataclass(frozen=True)
class StateLayout:
    """Component indices for the conservative state vector."""

    nspecies: int = 1
    dim: int = 3

    def __post_init__(self) -> None:
        if self.nspecies < 1:
            raise ValueError("need at least one species")
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")

    @property
    def ncons(self) -> int:
        """Number of conservative components."""
        return self.nspecies + self.dim + 1

    @property
    def rho_s(self) -> slice:
        """Species partial densities rho_s."""
        return slice(0, self.nspecies)

    def mom(self, d: int) -> int:
        """Momentum component rho*u_d."""
        if not 0 <= d < self.dim:
            raise IndexError(f"direction {d} out of range for dim {self.dim}")
        return self.nspecies + d

    @property
    def mom_slice(self) -> slice:
        return slice(self.nspecies, self.nspecies + self.dim)

    @property
    def energy(self) -> int:
        """Total energy per unit volume E."""
        return self.nspecies + self.dim

    def density(self, u: np.ndarray) -> np.ndarray:
        """Total density rho = sum_s rho_s."""
        return u[self.rho_s].sum(axis=0)

    def velocity(self, u: np.ndarray) -> np.ndarray:
        """Mass-averaged velocity components, shape (dim, ...)."""
        rho = self.density(u)
        return u[self.mom_slice] / rho[None]

    def kinetic_energy(self, u: np.ndarray) -> np.ndarray:
        """1/2 rho u_i u_i."""
        rho = self.density(u)
        return 0.5 * (u[self.mom_slice] ** 2).sum(axis=0) / rho

    def mass_fractions(self, u: np.ndarray) -> np.ndarray:
        """Y_s = rho_s / rho, shape (nspecies, ...)."""
        return u[self.rho_s] / self.density(u)[None]
