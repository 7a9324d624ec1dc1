"""Viscous flux divergence (4th-order central differences).

Implements the diffusive part of Eq. 1: the shear-stress tensor from a
linear (Newtonian) stress-strain relationship with Stokes' hypothesis, the
Fourier heat flux, and optional Fickian species diffusion with the
associated enthalpy transport.  All physical-space gradients are obtained
through the curvilinear chain rule

    d(phi)/d(x_j) = (1/J) sum_d m_dj d(phi)/d(xi_d)

and the flux divergence is formed in computational space, matching the
paper's fully curvilinear Viscous kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.numerics.eos import MixtureEOS
from repro.numerics.metrics import Metrics, derivative_same_shape
from repro.numerics.state import StateLayout


def constant_viscosity(mu: float) -> Callable[[np.ndarray], np.ndarray]:
    """A viscosity law mu(T) = const (nondimensional test problems)."""

    def fn(T: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(T, dtype=np.float64), mu)

    return fn


@dataclass
class ViscousFlux:
    """Configured viscous-flux operator."""

    mu_fn: Callable[[np.ndarray], np.ndarray]
    prandtl: float = 0.72
    schmidt: float = 0.9
    order: int = 4
    include_species_diffusion: bool = False

    @property
    def nghost(self) -> int:
        """Ghost cells needed: two derivative applications of radius order/2."""
        return self.order  # 2 * (order // 2)

    def divergence(
        self,
        layout: StateLayout,
        eos,
        u: np.ndarray,
        metrics: Metrics,
        ng: int,
    ) -> np.ndarray:
        """(1/J) sum_d d(sum_j m_dj Fv_j)/d(xi_d) over the valid region."""
        if ng < self.nghost:
            raise ValueError(f"need at least {self.nghost} ghost cells, got {ng}")
        dim = layout.dim
        shape = u.shape[1:]
        rho = layout.density(u)
        vel = layout.velocity(u)
        T = eos.temperature(layout, u)
        mu = self.mu_fn(T)
        cp = self._cp(layout, eos, u)
        kappa = mu * cp / self.prandtl

        J = np.broadcast_to(metrics.jacobian(), shape)
        minv = [np.broadcast_to(metrics.m(d), (dim,) + shape) for d in range(dim)]

        def grad(phi: np.ndarray) -> np.ndarray:
            """Physical gradient d(phi)/d(x_j), shape (dim, *shape)."""
            dphi = np.stack(
                [derivative_same_shape(phi, axis=d, order=self.order) for d in range(dim)]
            )
            out = np.zeros((dim,) + shape)
            for j in range(dim):
                for d in range(dim):
                    out[j] += minv[d][j] * dphi[d]
            return out / J[None]

        gvel = np.stack([grad(vel[i]) for i in range(dim)])  # gvel[i, j] = du_i/dx_j
        div_u = sum(gvel[i, i] for i in range(dim))
        # Newtonian stress with Stokes' hypothesis
        tau = np.empty((dim, dim) + shape)
        for i in range(dim):
            for j in range(dim):
                tau[i, j] = mu * (gvel[i, j] + gvel[j, i])
            tau[i, i] -= (2.0 / 3.0) * mu * div_u
        q = -kappa[None] * grad(T)  # heat flux

        # physical viscous flux vectors Fv_j, shape (ncons, dim, *shape)
        fv = np.zeros((layout.ncons, dim) + shape)
        for i in range(dim):
            for j in range(dim):
                fv[layout.mom(i), j] = tau[i, j]
                fv[layout.energy, j] += vel[i] * tau[i, j]
        for j in range(dim):
            fv[layout.energy, j] -= q[j]
        if self.include_species_diffusion and layout.nspecies > 1:
            self._add_species_diffusion(layout, eos, u, rho, mu, grad, fv)

        # transform to computational space and take the divergence
        out = np.zeros((layout.ncons,) + shape)
        for d in range(dim):
            fhat = np.einsum("j...,cj...->c...", minv[d], fv)
            for c in range(layout.ncons):
                out[c] += derivative_same_shape(fhat[c], axis=d, order=self.order)
        out /= J[None]
        # crop to the valid region
        sl = (slice(None),) + tuple(slice(ng, n - ng) for n in shape)
        return out[sl]

    def _cp(self, layout: StateLayout, eos, u: np.ndarray):
        if hasattr(eos, "cp"):
            return eos.cp
        if isinstance(eos, MixtureEOS):
            y = layout.mass_fractions(u)
            cps = np.array([s.cp for s in eos.species])
            return np.tensordot(cps, y, axes=(0, 0))
        raise TypeError(f"cannot determine cp for EOS {type(eos).__name__}")

    def _add_species_diffusion(self, layout, eos, u, rho, mu, grad, fv) -> None:
        """Fickian diffusion: rho_s v_sj = -rho D dY_s/dx_j, plus enthalpy flux."""
        D = mu / (rho * self.schmidt)
        if not isinstance(eos, MixtureEOS):
            raise TypeError("species diffusion requires a MixtureEOS")
        T = eos.temperature(layout, u)
        y = layout.mass_fractions(u)
        for s in range(layout.nspecies):
            gy = grad(y[s])
            sp = eos.species[s]
            h_s = sp.cp * T + sp.h_formation  # specific enthalpy
            for j in range(layout.dim):
                diff_flux = rho * D * gy[j]
                fv[s, j] += diff_flux
                fv[layout.energy, j] += h_s * diff_flux
