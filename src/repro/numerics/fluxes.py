"""Convective flux divergence via WENO reconstruction.

Implements the convective part of Eq. 1 in strong conservation-law form on
generalized curvilinear grids.  With computational coordinates ``xi_d``
(unit spacing) and metric vectors ``m_d = J grad(xi_d)``:

    d(J U)/dt + sum_d d(Fhat_d)/d(xi_d) = 0
    Fhat_d = [rho_s Uhat,  rho u_i Uhat + m_di p,  (E + p) Uhat]
    Uhat   = sum_j m_dj u_j        (J times the contravariant velocity)

Fluxes are split with a global (per-patch, per-direction) Lax-Friedrichs
splitting ``Fhat± = (Fhat ± alpha J U) / 2`` with ``alpha`` the largest
characteristic speed ``(|Uhat| + a |m_d|) / J``, and each part is
reconstructed at interfaces with the WENO-SYMBO scheme
(:mod:`repro.numerics.weno`) — upwind-biased for the plus part, mirrored
for the minus part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

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
        cells; metric arrays must broadcast over the same grown shape.
        """
        if ng < self.nghost:
            raise ValueError(f"need at least {self.nghost} ghost cells, got {ng}")
        axis = direction + 1
        dim = layout.dim
        rho, vel, p = eos.primitives(layout, u)
        a = eos.sound_speed(layout, u)
        m = metrics.m(direction)
        J = metrics.jacobian()

        fhat = curvilinear_flux(layout, u, vel, p, m, form=self.split_form)
        lam = wave_speed(vel, a, m, J)
        alpha = float(lam.max())
        # split against q = J U (J is the time-independent cell Jacobian)
        ju = u * np.broadcast_to(J, lam.shape)[None]
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
        sl = [slice(None)] * f_iface.ndim
        sl[axis] = slice(start, start + nv + 1)
        f_iface = f_iface[tuple(sl)]

        df = np.diff(f_iface, axis=axis)
        # crop transverse directions to the valid region
        crop = [slice(None)] * df.ndim
        for d in range(dim):
            if d != direction:
                crop[d + 1] = slice(ng, df.shape[d + 1] - ng)
        df = df[tuple(crop)]
        Jv = _crop_to_valid(np.broadcast_to(J, u.shape[1:]), ng, df.shape[1:])
        return -df / Jv

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


def _crop_to_valid(arr: np.ndarray, ng: int, valid_shape: Tuple[int, ...]) -> np.ndarray:
    """Crop a (possibly broadcast, size-1-axis) array to the valid region."""
    sl = []
    for n, nv in zip(arr.shape, valid_shape):
        if n == nv:
            sl.append(slice(None))
        elif n == 1:
            sl.append(slice(None))
        else:
            sl.append(slice(ng, ng + nv))
    return arr[tuple(sl)]
