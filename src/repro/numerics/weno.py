"""Bandwidth-optimized symmetric WENO (WENO-SYMBO) reconstruction.

Following Martin, Taylor, Wu & Weirs (JCP 2006), the flux at interface
``i+1/2`` is reconstructed from **four** 3-point candidate stencils placed
symmetrically around the interface (three upwind-biased plus one downwind):

    r=0: cells (i-2, i-1, i)      r=1: cells (i-1, i, i+1)
    r=2: cells (i,  i+1, i+2)     r=3: cells (i+1, i+2, i+3)

Each candidate's interface value and Jiang-Shu-type smoothness indicator
are derived *from first principles* here (polynomial reconstruction from
cell averages and exact quadrature of derivative energies over cell i), so
the downwind stencil gets a consistent smoothness measure instead of an
ad-hoc one.  Symmetric linear weights make the underlying linear scheme
central (zero dissipation); the choice of the free weight parameter is

- ``symoo``: maximum formal order (6th), C = (1/20, 9/20, 9/20, 1/20),
- ``symbo``: bandwidth-optimized — the free parameter minimizes the
  integrated modified-wavenumber error of the full flux-difference
  operator up to a cutoff wavenumber, trading formal order for resolving
  efficiency exactly as Martin et al. do.

Near discontinuities a relative-smoothness limiter disables the downwind
stencil so the scheme falls back to upwind-biased WENO, which provides
the dissipation needed for shock capturing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

#: relative smoothness regularization: the effective epsilon is
#: WENO_EPS times the local mean-square data magnitude, so the weights are
#: scale-invariant — small absolute epsilons famously degrade WENO to
#: low order at smooth critical points, while absolute large ones break
#: shock capturing for small-amplitude data.
WENO_EPS = 1e-2

#: absolute floor guarding against identically-zero data
WENO_EPS_FLOOR = 1e-99  # squaring must not underflow to zero

#: relative-smoothness ratio above which the downwind stencil is disabled
DOWNWIND_LIMIT_RATIO = 5.0

#: candidate stencil cell offsets relative to cell i, interface at i+1/2
CANDIDATE_OFFSETS: Tuple[Tuple[int, ...], ...] = (
    (-2, -1, 0),
    (-1, 0, 1),
    (0, 1, 2),
    (1, 2, 3),
)


def _cell_average_matrix(offsets: Sequence[int]) -> np.ndarray:
    """Rows: cell-average functionals of the monomial basis {1, x, x^2}.

    Cell c covers [c - 1/2, c + 1/2]; the average of x^k over it is
    ((c+1/2)^{k+1} - (c-1/2)^{k+1}) / (k+1).
    """
    n = len(offsets)
    m = np.empty((n, n))
    for row, c in enumerate(offsets):
        for k in range(n):
            m[row, k] = ((c + 0.5) ** (k + 1) - (c - 0.5) ** (k + 1)) / (k + 1)
    return m


@lru_cache(maxsize=None)
def interface_coefficients(offsets: Tuple[int, ...]) -> np.ndarray:
    """Coefficients c_j with q = sum_j c_j vbar_j reconstructing f(1/2).

    ``vbar_j`` are cell averages on cells ``offsets``; the reconstruction
    polynomial is evaluated at the interface x = +1/2.
    """
    m = _cell_average_matrix(offsets)
    # value at x = 1/2 of each monomial
    val = np.array([0.5**k for k in range(len(offsets))])
    return np.linalg.solve(m.T, val)


@lru_cache(maxsize=None)
def smoothness_matrix(offsets: Tuple[int, ...]) -> np.ndarray:
    """Quadratic form M with beta = vbar^T M vbar (Jiang-Shu indicator).

    beta = sum_{l=1}^{2} integral_{-1/2}^{1/2} (d^l p / dx^l)^2 dx with the
    usual Delta^(2l-1) normalization (Delta = 1 here).  For the standard
    upwind stencils this reproduces the classic Jiang-Shu formulas; for the
    downwind stencil it measures the candidate polynomial's roughness *over
    cell i*, giving a consistent indicator.
    """
    m = _cell_average_matrix(offsets)
    minv = np.linalg.inv(m)  # monomial coeffs = minv @ vbar
    n = len(offsets)
    mat = np.zeros((n, n))
    # p(x) = a0 + a1 x + a2 x^2 ; p' = a1 + 2 a2 x ; p'' = 2 a2
    # int_{-1/2}^{1/2} p'^2 = a1^2 + (1/3) a2^2
    # int_{-1/2}^{1/2} p''^2 = 4 a2^2
    q = np.zeros((n, n))
    q[1, 1] += 1.0
    q[2, 2] += 1.0 / 3.0 + 4.0
    mat = minv.T @ q @ minv
    return mat


def _classic_upwind_weights() -> np.ndarray:
    """Optimal weights of 5th-order WENO-JS over the three upwind stencils."""
    return np.array([0.1, 0.6, 0.3])


def symmetric_weights(c0: float) -> np.ndarray:
    """Symmetric linear weights (c0, 1/2 - c0, 1/2 - c0, c0)."""
    if not 0.0 < c0 < 0.5:
        raise ValueError("c0 must lie in (0, 0.5)")
    return np.array([c0, 0.5 - c0, 0.5 - c0, c0])


def modified_wavenumber(c0: float, k: np.ndarray) -> np.ndarray:
    """Modified wavenumber of the linear symmetric scheme's d/dx operator.

    The flux-difference operator (qhat_{i+1/2} - qhat_{i-1/2}) applied to
    e^{Ikx}; symmetric weights make it purely real (dispersive only).
    """
    weights = symmetric_weights(c0)
    # combined interface coefficients on offsets -2..3
    comb = np.zeros(6)
    for w, offs in zip(weights, CANDIDATE_OFFSETS):
        cr = interface_coefficients(offs)
        for c, o in zip(cr, offs):
            comb[o + 2] += w * c
    # derivative coefficients b_j on f_{i+j}, j = -3..3
    b = np.zeros(7)
    b[1:7] += comb  # qhat_{i+1/2} at offsets -2..3 -> j index shift +3... see below
    b[0:6] -= comb  # qhat_{i-1/2} uses offsets shifted by -1
    j = np.arange(-3, 4)
    return np.array([np.sum(b * np.sin(jj * kk)) for kk in np.atleast_1d(k)
                     for jj in [j]]).reshape(np.shape(k))


def derive_symbo_c0(k_cut: float = 2.0, n_quad: int = 400) -> float:
    """Bandwidth-optimize the free symmetric weight parameter.

    Minimizes  E(c0) = int_0^{k_cut} (k'(k) - k)^2 dk  over c0, the
    integrated dispersion error of the linear scheme up to ``k_cut``
    (radians per cell).  E is quadratic in c0, so the optimum is exact:
    k'(k; c0) is affine in c0.
    """
    k = np.linspace(1e-4, k_cut, n_quad)
    # k' is affine in c0: evaluate at two points and solve the quadratic min
    ka = modified_wavenumber(0.01, k)
    kb = modified_wavenumber(0.26, k)
    slope = (kb - ka) / (0.26 - 0.01)
    base = ka - slope * 0.01  # k'(k; 0)
    err0 = base - k
    # E(c0) = int (err0 + slope c0)^2 -> c0* = -int(err0*slope)/int(slope^2)
    num = np.trapezoid(err0 * slope, k)
    den = np.trapezoid(slope * slope, k)
    c0 = -num / den
    return float(np.clip(c0, 1e-4, 0.49))


#: maximum-order symmetric weights (6th order)
SYMOO_C0 = 0.05

#: bandwidth-optimized weight parameter (derived by derive_symbo_c0();
#: tests re-derive and compare)
SYMBO_C0 = derive_symbo_c0()


VARIANTS = ("symbo", "symoo", "js5")


@dataclass(frozen=True)
class WenoScheme:
    """A configured WENO reconstruction scheme."""

    variant: str = "symbo"  # one of VARIANTS
    eps: float = WENO_EPS
    downwind_limit: float = DOWNWIND_LIMIT_RATIO

    def linear_weights(self) -> np.ndarray:
        if self.variant == "symbo":
            return symmetric_weights(SYMBO_C0)
        if self.variant == "symoo":
            return symmetric_weights(SYMOO_C0)
        if self.variant == "js5":
            return _classic_upwind_weights()
        raise ValueError(f"unknown WENO variant {self.variant!r}")

    @property
    def n_stencils(self) -> int:
        return 3 if self.variant == "js5" else 4

    @property
    def nghost(self) -> int:
        """Ghost cells needed on each side to reconstruct all interfaces."""
        return 3

    def combine(self, cells) -> np.ndarray:
        """Upwind-biased WENO combination of one 6-point stencil.

        ``cells`` is a sequence of 6 same-shaped arrays holding values at
        offsets -2..3 relative to the cell left of the interface.  Returns
        the reconstructed interface value.  This is the reconstruction
        primitive: :meth:`reconstruct` applies it along an axis, and the
        characteristic-wise flux path applies it to eigenvector-projected
        stencils (:mod:`repro.numerics.characteristic`).
        """
        if len(cells) != 6:
            raise ValueError("combine expects the 6 stencil values (offsets -2..3)")
        nst = self.n_stencils
        weights = self.linear_weights()
        qs = []
        betas = []
        for r in range(nst):
            offs = CANDIDATE_OFFSETS[r]
            cr = interface_coefficients(offs)
            mr = smoothness_matrix(offs)
            vals = [cells[o + 2] for o in offs]
            qs.append(sum(c * v for c, v in zip(cr, vals)))
            betas.append(sum(
                mr[a, b] * vals[a] * vals[b]
                for a in range(3)
                for b in range(3)
            ))
        # scale-relative regularization: eps_eff ~ eps * <v^2> over the
        # full stencil, making the nonlinear weights scale-invariant
        scale2 = sum(c**2 for c in cells) / 6.0
        eps_eff = self.eps * scale2 + WENO_EPS_FLOOR
        alphas = [weights[r] / (eps_eff + betas[r]) ** 2 for r in range(nst)]
        if nst == 4:
            # Downwind-weight cap (Martin et al.): the normalized downwind
            # weight may never exceed its optimal value C3, i.e. the scheme
            # is never *more* central than the linear optimum.  Without
            # this the nonlinear weights can turn anti-dissipative and the
            # central symmetric scheme is unstable even for smooth
            # advection.  omega3 <= C3  <=>  alpha3 <= C3/(1-C3) * sum(rest).
            upwind_sum = alphas[0] + alphas[1] + alphas[2]
            cap = weights[3] / (1.0 - weights[3]) * upwind_sum
            alphas[3] = np.minimum(alphas[3], cap)
            if self.downwind_limit > 0:
                # relative-smoothness limiter: fully disable the downwind
                # stencil when any candidate sees a discontinuity
                bmin = np.minimum(np.minimum(betas[0], betas[1]), betas[2])
                bmax = np.maximum(np.maximum(betas[0], betas[1]), betas[2])
                rough = np.maximum(bmax, betas[3]) > self.downwind_limit * (
                    bmin + eps_eff
                )
                alphas[3] = np.where(rough, 0.0, alphas[3])
        asum = sum(alphas)
        return sum(a * q for a, q in zip(alphas, qs)) / asum

    def combine_minus(self, cells) -> np.ndarray:
        """Mirror-image combination: stencils biased from the right.

        Reflecting about the interface maps offset o to 1 - o, i.e. the
        reversed cell list.
        """
        return self.combine(list(cells)[::-1])

    def reconstruct(self, v: np.ndarray, axis: int) -> np.ndarray:
        """Upwind-biased reconstruction of interface values at i+1/2.

        ``v`` holds point/flux values including ghost cells along ``axis``.
        With n input cells the output covers the n - 5 interfaces whose
        full 6-point stencil (offsets -2..3) is available; the first output
        is the interface right of input cell 2.

        For the mirrored (downwind, F-) reconstruction use
        :func:`reconstruct_minus`.
        """
        v = np.moveaxis(v, axis, -1)
        n = v.shape[-1]
        nout = n - 5
        if nout < 1:
            raise ValueError("not enough cells for WENO reconstruction")
        i0 = 2  # first interface cell: needs i-2 >= 0 and i+3 <= n-1
        cells = [v[..., i0 + o: i0 + o + nout] for o in range(-2, 4)]
        out = self.combine(cells)
        return np.moveaxis(out, -1, axis)


def reconstruct_minus(scheme: WenoScheme, v: np.ndarray, axis: int) -> np.ndarray:
    """Mirror-image reconstruction (for the negative flux split F-).

    Reconstructs at the same interfaces as ``scheme.reconstruct`` but with
    stencils biased from the right, by flipping, reconstructing, and
    flipping back.
    """
    flipped = np.flip(v, axis=axis)
    rec = scheme.reconstruct(flipped, axis)
    return np.flip(rec, axis=axis)
