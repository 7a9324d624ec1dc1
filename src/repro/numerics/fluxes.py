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

:meth:`ConvectiveFlux.divergence` is the one WENO sweep every execution
target runs: full-grown-array ``alpha``, transverse crop, flux, split
into role-keyed scratch stored sweep axis first, the ``nvalid + 1``
interfaces of the valid region combined from 6 contiguous windows — plus
and mirrored minus accumulated into one interface array — difference,
division by ``J``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.numerics import native
from repro.numerics.eos import IdealGasEOS
from repro.numerics.metrics import Metrics
from repro.numerics.state import StateLayout
from repro.numerics.weno import NO_SCRATCH, WenoScheme, windows


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
    return f


def wave_speed(
    vel: np.ndarray, a: np.ndarray, m: np.ndarray, J: np.ndarray,
) -> np.ndarray:
    """Largest characteristic speed (|Uhat| + a |m|) / J per cell."""
    uhat = contravariant(vel, m)
    mnorm = np.sqrt(np.einsum("j...,j...->...", m, m))
    return (np.abs(uhat) + a * mnorm) / J


def lax_friedrichs_split(
    layout: StateLayout, eos, u: np.ndarray, m: np.ndarray, J: np.ndarray,
    direction: int, ng: int, form: str, fplus_s: np.ndarray,
    fminus_s: np.ndarray, scratch=NO_SCRATCH,
) -> np.ndarray:
    """The pre-pass of the sweep in NumPy — reference and fallback of the
    compiled one: ``alpha``, one per box over its full grown array, and
    ``Fhat+- = (Fhat +- alpha J U) / 2`` into ``fplus_s`` / ``fminus_s``.

    Reconstruction couples cells along the sweep axis only: the
    transverse ghost rows are dead work, dropped before the flux.
    """
    dim = layout.dim
    axis = u.ndim - dim + direction
    rho, vel, p = eos.primitives(layout, u)
    lam = wave_speed(vel, eos.sound_speed(layout, u, rho, p), m, J)
    alpha = lam.max(axis=tuple(range(-dim, 0)), keepdims=True)
    u, vel, p, m = (_crop_transverse(x, direction, ng, dim)
                    for x in (u, vel, p, m))
    J = _crop_transverse(np.broadcast_to(J, lam.shape), direction, ng, dim)
    fhat = curvilinear_flux(layout, u, vel, p, m, form=form)
    # split against q = J U (J is the time-independent cell Jacobian);
    # `fplus` / `fminus` are the outputs' memory in u's axis order
    ju = scratch.get("ju", fhat.shape)
    fplus = np.moveaxis(fplus_s, 0, axis)
    fminus = np.moveaxis(fminus_s, 0, axis)
    np.multiply(u, J[None], out=ju)
    ju *= alpha
    np.subtract(fhat, ju, out=fminus)
    fminus_s *= 0.5
    np.add(fhat, ju, out=fplus)
    fplus_s *= 0.5
    return alpha


@dataclass
class ConvectiveFlux:
    """Configured convective-flux operator (scheme + splitting).

    ``split_form`` is forwarded to :func:`curvilinear_flux` as ``form`` —
    the fortran ordering uses ``fused`` and the translated cpp ordering
    ``distributed``, reproducing compiler re-association drift.
    """

    scheme: WenoScheme = WenoScheme()
    split_form: str = "fused"

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
        scratch=NO_SCRATCH,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """-(1/J) d(Fhat_d)/d(xi_d) over the valid region: in a new array,
        or added to ``out`` (which is then returned).

        ``u`` covers the valid box grown by ``ng >= nghost + 1`` ghost
        cells, ``(ncons, *grown)`` or, for a batch of equal-shape boxes,
        ``(ncons, B, *grown)``; metric arrays must broadcast over the
        same shape behind their component axis.  This is the one WENO
        sweep every execution target runs: pre-pass, rows, difference.
        Intermediates are taken by role from ``scratch`` (the backend's
        :class:`~repro.backend.ScratchCache`; new arrays by default).
        All three run as one compiled call when this process has the
        library (:mod:`repro.numerics.native`) and the input is in its
        domain — an :class:`IdealGasEOS` state of one species on stored
        metrics — else in
        :func:`lax_friedrichs_split`, the compiled rows or
        :meth:`WenoScheme.combine`, and NumPy: the same bits either way.
        """
        if ng < self.nghost:
            raise ValueError(f"need at least {self.nghost} ghost cells, got {ng}")
        dim = layout.dim
        axis = u.ndim - dim + direction
        m = metrics.m(direction)
        J = metrics.jacobian()
        get = scratch.get
        compiled = native.kernels()
        if (compiled is not None and type(eos) is IdealGasEOS
                and self.split_form in ("fused", "distributed")):
            call = compiled.bind_sweep(
                self.scheme, u, m, J, direction, ng, eos.gamma,
                self.split_form == "distributed", scratch, out,
                out is not None)
            if call is not None:
                call()
                return call.out

        # the split fluxes are stored sweep axis first, so each of the 6
        # stencil windows below is one contiguous block whatever the
        # direction
        shape = _crop_transverse(u, direction, ng, dim).shape
        rest = shape[:axis] + shape[axis + 1:]
        fplus_s = get("fplus", shape[axis:axis + 1] + rest)
        fminus_s = get("fminus", fplus_s.shape)
        lax_friedrichs_split(layout, eos, u, m, J, direction, ng,
                             self.split_form, fplus_s, fminus_s, scratch)
        J = _crop_transverse(np.broadcast_to(J, u.shape[1:]), direction, ng, dim)

        # only interfaces -1/2 .. nvalid-1/2 of the valid region
        nv = u.shape[axis] - 2 * ng
        start = ng - 3
        f_iface = get("f_iface", (nv + 1,) + rest)
        if compiled is not None:
            compiled.weno_rows(self.scheme, fplus_s, fminus_s, start, f_iface)
        else:
            self.scheme.combine(windows(fplus_s, 0, start, nv + 1),
                                out=f_iface, scratch=scratch)
            self.scheme.combine_minus(windows(fminus_s, 0, start, nv + 1),
                                      out=f_iface, scratch=scratch, add=True)

        df = f_iface[1:] - f_iface[:-1]
        sweep = [slice(None)] * (u.ndim - 1)
        sweep[axis - 1] = slice(ng, ng + nv)
        df /= np.moveaxis(J[tuple(sweep)], axis - 1, 0)[:, None]
        df = np.moveaxis(df, 0, axis)  # u's axis order, as the compiled out
        if out is None:
            return np.negative(df, out=np.empty(df.shape, df.dtype))
        out += np.negative(df, out=df)
        return out


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
