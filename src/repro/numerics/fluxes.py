"""Convective flux divergence via WENO reconstruction.

Implements the convective part of Eq. 1 in strong conservation-law form on
generalized curvilinear grids.  With computational coordinates ``xi_d``
(unit spacing) and metric vectors ``m_d = J grad(xi_d)``:

    d(J U)/dt + sum_d d(Fhat_d)/d(xi_d) = 0
    Fhat_d = [rho_s Uhat,  rho u_i Uhat + m_di p,  (E + p) Uhat]
    Uhat   = sum_j m_dj u_j        (J times the contravariant velocity)

Fluxes are split with a global (per-patch, per-direction) Lax-Friedrichs
splitting ``Fhat± = (Fhat ± alpha J U) / 2`` with ``alpha`` the largest
characteristic speed ``(|Uhat| + a |m_d|) / J`` over the patch's grown
array, and each part is reconstructed at interfaces with the WENO-SYMBO
scheme (:mod:`repro.numerics.weno`) — upwind-biased for the plus part,
mirrored for the minus part.

Axis convention: the grid axes are the *trailing* ``dim`` axes of every
array, so one call takes a patch ``u (ncons, *grown)`` or a batch of
equal-shape patches ``u (ncons, B, *grown)`` and gives each member the
value of its own call (``alpha`` is then one per member).  A sweep needs
the ghost cells of its own axis only: the transverse ghost rows — 2.5x to
3x the valid cells on small AMR boxes — are dropped before the flux, the
split and the reconstruction, which is exact because reconstruction
couples cells along the sweep axis only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.numerics.metrics import Metrics
from repro.numerics.state import StateLayout
from repro.numerics.weno import WenoScheme, reconstruct_minus


def contravariant(vel: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Uhat = sum_j m_j u_j (J times the contravariant velocity)."""
    return np.einsum("j...,j...->...", m, vel)


def curvilinear_flux(
    layout: StateLayout, u: np.ndarray, vel: np.ndarray, p: np.ndarray,
    m: np.ndarray, form: str = "fused",
) -> np.ndarray:
    """Metric-weighted convective flux Fhat_d for one direction.

    ``form`` selects between two algebraically identical evaluations of the
    energy flux: ``fused`` computes ``(E + p) * Uhat`` while
    ``distributed`` computes ``E * Uhat + p * Uhat``.  The two round
    differently — the re-association freedom a compiler has, and the
    mechanism behind the paper's Fortran-vs-C++ floating-point drift
    (Sec. IV-A).
    """
    uhat = contravariant(vel, m)
    f = np.empty_like(u)
    f[layout.rho_s] = u[layout.rho_s] * uhat[None]
    for i in range(layout.dim):
        f[layout.mom(i)] = u[layout.mom(i)] * uhat + m[i] * p
    if form == "fused":
        f[layout.energy] = (u[layout.energy] + p) * uhat
    elif form == "distributed":
        f[layout.energy] = u[layout.energy] * uhat + p * uhat
    else:
        raise ValueError(f"unknown flux form {form!r}")
    if layout.nscalars:
        f[layout.scalar_slice] = u[layout.scalar_slice] * uhat[None]
    return f


def wave_speed(
    vel: np.ndarray, a: np.ndarray, m: np.ndarray, J: np.ndarray,
) -> np.ndarray:
    """Largest characteristic speed (|Uhat| + a |m|) / J per cell."""
    uhat = contravariant(vel, m)
    mnorm = np.sqrt(np.einsum("j...,j...->...", m, m))
    return (np.abs(uhat) + a * mnorm) / J


@dataclass
class ConvectiveFlux:
    """Configured convective-flux operator (scheme + splitting).

    ``split_form`` is forwarded to :func:`curvilinear_flux` as ``form`` —
    the fortran ordering uses ``fused`` and the translated cpp ordering
    ``distributed``, reproducing compiler re-association drift.

    ``characteristic`` switches from component-wise to characteristic-wise
    reconstruction: stencil fluxes are projected onto Roe-averaged
    eigenvectors per interface before the WENO combination
    (:mod:`repro.numerics.characteristic`) — the robust production choice
    for very strong shocks.  Single-species ideal gas only.
    """

    scheme: WenoScheme = WenoScheme()
    split_form: str = "fused"
    characteristic: bool = False

    @property
    def nghost(self) -> int:
        return self.scheme.nghost

    def divergence(
        self,
        layout: StateLayout,
        eos,
        u: np.ndarray,
        metrics: Metrics,
        direction: int,
        ng: int,
    ) -> np.ndarray:
        """-(1/J) d(Fhat_d)/d(xi_d) over the valid region.

        ``u`` covers the valid box grown by ``ng >= nghost + 1`` ghost
        cells, ``(ncons, *grown)`` or, for a batch of equal-shape boxes,
        ``(ncons, B, *grown)``; metric arrays must broadcast over the
        same shape behind their component axis.
        """
        if ng < self.nghost:
            raise ValueError(f"need at least {self.nghost} ghost cells, got {ng}")
        dim = layout.dim
        axis = u.ndim - dim + direction
        rho, vel, p = eos.primitives(layout, u)
        a = eos.sound_speed(layout, u)
        m = metrics.m(direction)
        J = metrics.jacobian()

        # one alpha per box, over its full grown array
        lam = wave_speed(vel, a, m, J)
        alpha = lam.max(axis=tuple(range(-dim, 0)), keepdims=True)

        # reconstruction couples cells along the sweep axis only: the
        # transverse ghost rows are dead work, dropped before the flux
        u, vel, p, m = (_crop_transverse(x, direction, ng, dim)
                        for x in (u, vel, p, m))
        J = _crop_transverse(np.broadcast_to(J, lam.shape), direction, ng, dim)
        fhat = curvilinear_flux(layout, u, vel, p, m, form=self.split_form)
        # split against q = J U (J is the time-independent cell Jacobian)
        ju = u * J[None]
        fplus = 0.5 * (fhat + alpha * ju)
        fminus = 0.5 * (fhat - alpha * ju)

        if self.characteristic:
            f_iface = self._characteristic_interface(
                layout, eos, u, fplus, fminus, m, axis
            )
        else:
            rec_p = self.scheme.reconstruct(fplus, axis)
            rec_m = reconstruct_minus(self.scheme, fminus, axis)
            f_iface = rec_p + rec_m

        # keep interfaces -1/2 .. nvalid-1/2 of the valid region
        nv = u.shape[axis] - 2 * ng
        start = ng - 3
        sweep = [slice(None)] * u.ndim
        sweep[axis] = slice(start, start + nv + 1)
        df = np.diff(f_iface[tuple(sweep)], axis=axis)
        sweep[axis] = slice(ng, ng + nv)
        return -df / J[tuple(sweep[1:])]

    def _characteristic_interface(
        self, layout: StateLayout, eos, u: np.ndarray,
        fplus: np.ndarray, fminus: np.ndarray, m: np.ndarray, axis: int,
    ) -> np.ndarray:
        """Interface fluxes via Roe-eigenvector-projected reconstruction."""
        from repro.numerics.characteristic import (
            left_right_eigenvectors,
            project,
            roe_average,
        )

        if layout.nspecies != 1 or not hasattr(eos, "gamma"):
            raise ValueError(
                "characteristic reconstruction supports single-species "
                "ideal gas only"
            )
        # move the sweep axis last so interface slicing is uniform
        uu = np.moveaxis(u, axis, -1)
        fp = np.moveaxis(fplus, axis, -1)
        fm = np.moveaxis(fminus, axis, -1)
        mm = np.moveaxis(np.broadcast_to(m, (layout.dim,) + u.shape[1:]),
                         axis, -1)
        n_cells = uu.shape[-1]
        nif = n_cells - 5  # interfaces right of cells 2 .. n-4
        ul = uu[..., 2: 2 + nif]
        ur = uu[..., 3: 3 + nif]
        vel, H, a = roe_average(layout, eos, ul, ur)
        mmean = 0.5 * (mm[..., 2: 2 + nif] + mm[..., 3: 3 + nif])
        mmean = np.broadcast_to(mmean, (layout.dim,) + a.shape)
        nvec = mmean / np.sqrt((mmean**2).sum(axis=0))[None]
        L, R = left_right_eigenvectors(layout, eos.gamma, vel, H, a, nvec)
        cells_p = [project(L, fp[..., 2 + o: 2 + o + nif])
                   for o in range(-2, 4)]
        cells_m = [project(L, fm[..., 2 + o: 2 + o + nif])
                   for o in range(-2, 4)]
        w = self.scheme.combine(cells_p) + self.scheme.combine_minus(cells_m)
        f_iface = project(R, w)
        return np.moveaxis(f_iface, -1, axis)

    def max_wave_speed_sum(
        self, layout: StateLayout, eos, u: np.ndarray, metrics: Metrics,
    ) -> float:
        """max over cells of sum_d (|Uhat_d| + a |m_d|)/J — the CFL rate."""
        rho, vel, p = eos.primitives(layout, u)
        a = eos.sound_speed(layout, u)
        J = metrics.jacobian()
        total = np.zeros(np.broadcast_shapes(a.shape, np.shape(J)))
        for d in range(layout.dim):
            total = total + wave_speed(vel, a, metrics.m(d), J)
        return float(total.max())


def _crop_transverse(arr: np.ndarray, d: int, ng: int, dim: int) -> np.ndarray:
    """View of ``arr`` without the ``ng`` ghost rows of every grid
    direction but ``d``.

    The grid axes are the trailing ``dim`` axes; size-1 (broadcast) axes
    are left alone.
    """
    sl = [slice(None)] * arr.ndim
    for t in range(dim):
        if t != d and arr.shape[t - dim] > 1:
            sl[t - dim] = slice(ng, arr.shape[t - dim] - ng)
    return arr[tuple(sl)]
