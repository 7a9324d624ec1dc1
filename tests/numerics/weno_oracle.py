"""The reference WENO combination: ``WenoScheme.combine`` as it was before
the rank-2 / ``out=`` combination replaced it, verbatim.

A 9-term quadratic form per candidate stencil, every term a fresh
temporary, the weights from ``(eps_eff + beta)**2`` at the data's own
scale.  It left ``src/`` for speed (it was 43% of a steady step) and stays
here as the oracle: the shipped combination must agree with it to
rounding on every window (``tests/backend/test_fused.py``) and whole runs
with it patched in must stay within the paper's 1e-7 (``install``,
``tests/core/test_weno_drift.py``).
"""

import numpy as np

from repro.numerics import native
from repro.numerics.weno import (CANDIDATE_OFFSETS, WenoScheme,
                                 interface_coefficients, smoothness_matrix)

#: the absolute floor the quadratic-form combination ran with: its
#: ``eps_eff`` is squared, so the floor has to survive squaring
EPS_FLOOR = 1e-99


def combine(self, cells) -> np.ndarray:
    """Upwind-biased WENO combination of one 6-point stencil."""
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
    eps_eff = self.eps * scale2 + EPS_FLOOR
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


def compiled_combine(scheme, cells):
    """The compiled row kernel (``repro.numerics.native``) behind
    ``combine``'s signature, or ``None`` where this environment has none:
    one interface whose plus window is ``cells``; the minus window is
    zero and adds ``+0.0``."""
    compiled = native.kernels()
    if compiled is None:
        return None
    shape = np.shape(cells[0])
    fp = np.ascontiguousarray(np.stack([np.broadcast_to(c, shape)
                                        for c in cells]), dtype=np.float64)
    out = np.empty((1,) + shape)
    compiled.weno_rows(scheme, fp, np.zeros_like(fp), 0, out)
    return out[0]


def use_numpy_sweep(monkeypatch) -> None:
    """Make every sweep of this test run ``lax_friedrichs_split`` and
    ``WenoScheme.combine``, as a process without a library does."""
    monkeypatch.setattr(native, "_kernel", None)


def install(monkeypatch) -> None:
    """Make every sweep of this test run the reference arithmetic: the
    oracle behind the shipped ``combine``'s ``out=`` / ``add`` contract
    (which the sweep only calls without a compiled kernel)."""
    use_numpy_sweep(monkeypatch)

    def shipped_signature(self, cells, out=None, scratch=None, add=False):
        ref = combine(self, cells)
        if out is None:
            return ref
        if add:
            out += ref
        else:
            out[...] = ref
        return out

    monkeypatch.setattr(WenoScheme, "combine", shipped_signature)
