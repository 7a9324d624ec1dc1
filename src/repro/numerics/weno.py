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
from typing import Optional, Sequence, Tuple

import numpy as np

#: relative smoothness regularization: the effective epsilon is
#: WENO_EPS times the local mean-square data magnitude, so the weights are
#: scale-invariant — small absolute epsilons famously degrade WENO to
#: low order at smooth critical points, while absolute large ones break
#: shock capturing for small-amplitude data.
WENO_EPS = 1e-2

#: absolute floor of the regularization, guarding identically-zero data.
#: The smoothness indicators only enter as ``beta / eps_eff``, a ratio
#: bounded whatever the scale of the data by ``6 / WENO_EPS`` times the
#: largest eigenvalue of the stencil's quadratic form (31 for the downwind
#: one, <= 12.8 for the others: 1.86e4 / 7.7e3), so nothing is squared at
#: the data's own magnitude and the floor only has to keep ``1 / eps_eff``
#: finite.  The product-form weights multiply three factors
#: ``(1 + beta / eps_eff)**2``, each < 3.5e8 (< 6e7 upwind): a product
#: < 1.2e24, far from overflow.  Representable range of the
#: combination: zero, and 1e-145 <= |v| <= 1e+150 (below, ``v**2`` sinks
#: under the floor and the weights relax to the linear ones; above,
#: ``v**2`` overflows); inside it ``combine(s * v) == s * combine(v)`` to
#: rounding, and exactly for ``s`` a power of two.
WENO_EPS_FLOOR = 1e-300

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


#: the d^2 energy weight in the smoothness quadrature
#: (int p'^2 -> a1^2, int p''^2 -> (1/3 + 4) a2^2; see smoothness_matrix)
BETA_K = 1.0 / 3.0 + 4.0


@lru_cache(maxsize=None)
def stencil_tables(nst: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-stencil coefficient tables ``(C, D1, D2)``, each ``(nst, 3)``.

    ``C[r]`` are the interface-value coefficients; ``D1[r]``/``D2[r]``
    are rows 1 and 2 of ``inv(_cell_average_matrix)``:
    ``smoothness_matrix`` is ``minv.T @ diag(0, 1, BETA_K) @ minv``, so
    ``beta_r = (D1[r] . v)^2 + BETA_K * (D2[r] . v)^2`` is the quadratic
    form ``v.T @ smoothness_matrix @ v`` as two dot products instead of
    nine terms.  Stencil ``r`` reads window cells ``r, r+1, r+2`` (window
    index = offset + 2).
    """
    C = np.array([interface_coefficients(CANDIDATE_OFFSETS[r])
                  for r in range(nst)])
    minvs = [np.linalg.inv(_cell_average_matrix(CANDIDATE_OFFSETS[r]))
             for r in range(nst)]
    D1 = np.array([m[1] for m in minvs])
    D2 = np.array([m[2] for m in minvs])
    return C, D1, D2


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


class _Allocate:
    """The ``scratch`` of a call that has no cache: ``get`` allocates."""

    @staticmethod
    def get(role: str, shape, dtype=np.float64) -> np.ndarray:
        return np.empty(shape, dtype)


NO_SCRATCH = _Allocate()


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

    def combine(self, cells, out: Optional[np.ndarray] = None,
                scratch=NO_SCRATCH, add: bool = False) -> np.ndarray:
        """Upwind-biased WENO combination of one 6-point stencil.

        ``cells`` is a sequence of 6 same-shaped arrays (any strides)
        holding values at offsets -2..3 relative to the cell left of the
        interface.  Returns the reconstructed interface value — in
        ``out`` when given (accumulated into it with ``add``), else in a
        new array.  Every pass is an ``out=`` ufunc over intermediates
        taken by role from ``scratch`` (anything with the
        ``get(role, shape, dtype)`` of the backends' scratch cache; new
        arrays by default).  This is the reconstruction primitive: the
        convective sweep applies it to windows sliced along the sweep
        axis and :meth:`reconstruct` along a whole axis.
        """
        if len(cells) != 6:
            raise ValueError("combine expects the 6 stencil values (offsets -2..3)")
        nst = self.n_stencils
        w = self.linear_weights()
        C, D1, D2 = stencil_tables(nst)
        S = np.shape(cells[0])
        get = scratch.get
        t1 = get("cmb_t1", S)
        t2 = get("cmb_t2", S)
        eps_eff = get("cmb_eps", S)
        betas = get("cmb_betas", (nst,) + S)

        # scale-relative regularization: eps_eff = eps * <v^2> + floor
        # over the full window makes the nonlinear weights scale-invariant
        np.multiply(cells[0], cells[0], out=eps_eff)
        for c in cells[1:]:
            np.multiply(c, c, out=t1)
            eps_eff += t1
        eps_eff *= self.eps / 6.0
        eps_eff += WENO_EPS_FLOOR
        inv = np.divide(1.0, eps_eff, out=eps_eff)  # the first of two divides

        # smoothness indicators via the rank-2 factorization
        for r in range(nst):
            v0, v1, v2 = cells[r], cells[r + 1], cells[r + 2]
            b = betas[r]
            np.multiply(v0, D1[r, 0], out=t1)
            np.multiply(v1, D1[r, 1], out=t2)
            t1 += t2
            np.multiply(v2, D1[r, 2], out=t2)
            t1 += t2
            np.multiply(t1, t1, out=b)
            np.multiply(v0, D2[r, 0], out=t1)
            np.multiply(v1, D2[r, 1], out=t2)
            t1 += t2
            np.multiply(v2, D2[r, 2], out=t2)
            t1 += t2
            np.multiply(t1, t1, out=t1)
            t1 *= BETA_K
            b += t1
        # ... relative to eps_eff from here on: a bounded ratio, so no
        # later pass can overflow or underflow (see WENO_EPS_FLOOR)
        betas *= inv

        rough = None
        if nst == 4 and self.downwind_limit > 0:
            # relative-smoothness limiter: fully disable the downwind
            # stencil when any candidate sees a discontinuity
            bcut = get("cmb_bcut", S)
            bmax = get("cmb_bmax", S)
            np.minimum(betas[0], betas[1], out=bcut)
            np.minimum(bcut, betas[2], out=bcut)
            bcut += 1.0
            bcut *= self.downwind_limit
            np.maximum(betas[0], betas[1], out=bmax)
            np.maximum(bmax, betas[2], out=bmax)
            np.maximum(bmax, betas[3], out=bmax)
            rough = get("cmb_rough", S, bool)
            np.greater(bmax, bcut, out=rough)

        # product form: alpha_r = w_r * prod_{s != r} (1 + beta_s)^2, the
        # weights w_r / (1 + beta_r)^2 times their common factor
        # prod_s (1 + beta_s)^2, which num / sum cancels — no divide per
        # stencil.  In ascending s, as weno_sweep.c multiplies.
        betas += 1.0
        np.multiply(betas, betas, out=betas)
        alphas = get("cmb_alphas", (nst,) + S)
        for r in range(nst):
            others = [s for s in range(nst) if s != r]
            np.multiply(betas[others[0]], w[r], out=alphas[r])
            for s in others[1:]:
                alphas[r] *= betas[s]

        np.add(alphas[0], alphas[1], out=t1)
        t1 += alphas[2]
        if nst == 4:
            # Downwind-weight cap (Martin et al.): the normalized downwind
            # weight may never exceed its optimal value C3, i.e. the scheme
            # is never *more* central than the linear optimum.  Without
            # this the nonlinear weights can turn anti-dissipative and the
            # central symmetric scheme is unstable even for smooth
            # advection.  omega3 <= C3  <=>  alpha3 <= C3/(1-C3) * sum(rest).
            np.multiply(t1, w[3] / (1.0 - w[3]), out=t2)
            np.minimum(alphas[3], t2, out=alphas[3])
            if rough is not None:
                alphas[3][rough] = 0.0
            t1 += alphas[3]  # t1 = alpha sum

        # numerator sum_r alpha_r q_r
        q = get("cmb_q", S)
        num = get("cmb_num", S)
        for r in range(nst):
            v0, v1, v2 = cells[r], cells[r + 1], cells[r + 2]
            np.multiply(v0, C[r, 0], out=q)
            np.multiply(v1, C[r, 1], out=t2)
            q += t2
            np.multiply(v2, C[r, 2], out=t2)
            q += t2
            if r == 0:
                np.multiply(q, alphas[r], out=num)
            else:
                q *= alphas[r]
                num += q

        if out is None:
            out = np.empty(S)
        if add:
            np.divide(num, t1, out=num)
            out += num
        else:
            np.divide(num, t1, out=out)
        return out

    def combine_minus(self, cells, **kwargs) -> np.ndarray:
        """Mirror-image combination: stencils biased from the right.

        Reflecting about the interface maps offset o to 1 - o, i.e. the
        reversed cell list (flip-reconstruct-flip without the flips).
        """
        return self.combine(list(cells)[::-1], **kwargs)

    def reconstruct(self, v: np.ndarray, axis: int) -> np.ndarray:
        """Upwind-biased reconstruction of interface values at i+1/2.

        ``v`` holds point/flux values including ghost cells along ``axis``.
        With n input cells the output covers the n - 5 interfaces whose
        full 6-point stencil (offsets -2..3) is available; the first output
        is the interface right of input cell 2.

        For the mirrored (downwind, F-) reconstruction use
        :func:`reconstruct_minus`.
        """
        nout = v.shape[axis] - 5
        if nout < 1:
            raise ValueError("not enough cells for WENO reconstruction")
        return self.combine(windows(v, axis, 0, nout))


def windows(v: np.ndarray, axis: int, start: int, n: int) -> list:
    """The 6 stencil views (offsets -2..3) of the ``n`` interfaces right
    of cells ``start + 2 ...`` along ``axis``, sliced in place: results
    computed from them keep ``v``'s memory order."""
    sl = [slice(None)] * v.ndim
    out = []
    for k in range(6):
        sl[axis] = slice(start + k, start + k + n)
        out.append(v[tuple(sl)])
    return out


def reconstruct_minus(scheme: WenoScheme, v: np.ndarray, axis: int) -> np.ndarray:
    """Mirror-image reconstruction (for the negative flux split F-).

    Reconstructs at the same interfaces as ``scheme.reconstruct`` but with
    stencils biased from the right, by flipping, reconstructing, and
    flipping back.
    """
    flipped = np.flip(v, axis=axis)
    rec = scheme.reconstruct(flipped, axis)
    return np.flip(rec, axis=axis)
