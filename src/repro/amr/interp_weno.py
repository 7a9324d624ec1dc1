"""WENO interpolation across coarse/fine AMR interfaces.

The paper describes a high-order, bandwidth-optimized WENO interpolation
scheme *in development*, designed to match the dissipation and
order-of-accuracy of the WENO-SYMBO flux reconstruction so that the
interface introduces minimal extra error.  We implement a nonlinear WENO
interpolant in that spirit: dimension-by-dimension WENO interpolation of
point values at fine-cell locations, using two quadratic candidate
stencils combined with Jiang-Shu smoothness indicators (fourth-order in
smooth regions, non-oscillatory at shocks).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.amr.box import Box
from repro.amr.fab import FArrayBox
from repro.amr.intvect import IntVect, IntVectLike
from repro.amr.interpolate import Interpolator, _fine_fractions

#: Jiang-Shu epsilon guarding against zero smoothness
WENO_EPS = 1e-6


def _quadratic_eval(v0, v1, v2, x):
    """Evaluate the quadratic through values at -1, 0, 1 at offset ``x``."""
    a = 0.5 * (v0 - 2.0 * v1 + v2)
    b = 0.5 * (v2 - v0)
    return v1 + b * x + a * x * x


def _linear_weight(x: float) -> float:
    """Optimal weight of the left-biased stencil so the pair reproduces the
    cubic through the four points {-1, 0, 1, 2} at offset ``x`` in [0, 1]."""
    # gamma * q_left(x) + (1-gamma) * q_right(x) == cubic(x)  =>  gamma = (2-x)/3
    return (2.0 - x) / 3.0


def weno_interp_1d(v: np.ndarray, base: np.ndarray, frac: np.ndarray, axis: int) -> np.ndarray:
    """WENO-interpolate ``v`` along ``axis`` at points ``base + frac``.

    ``v`` holds point values with index origin 0 along ``axis``.  ``base``
    (int) and ``frac`` in [0,1) give target locations.  Requires
    ``base-1 >= 0`` and ``base+2 <= len-1`` (two ghost points each side).
    """
    v = np.moveaxis(v, axis, -1)
    n = v.shape[-1]
    if base.min() - 1 < 0 or base.max() + 2 > n - 1:
        raise ValueError("insufficient ghost points for WENO interpolation")
    vm1 = v[..., base - 1]
    v0 = v[..., base]
    vp1 = v[..., base + 1]
    vp2 = v[..., base + 2]

    # left-biased quadratic through (-1, 0, 1), right-biased through (0, 1, 2)
    ql = _quadratic_eval(vm1, v0, vp1, frac)
    qr = _quadratic_eval(v0, vp1, vp2, frac - 1.0)

    # Jiang-Shu smoothness indicators of the two quadratics
    bl = (13.0 / 12.0) * (vm1 - 2 * v0 + vp1) ** 2 + 0.25 * (vm1 - vp1) ** 2
    br = (13.0 / 12.0) * (v0 - 2 * vp1 + vp2) ** 2 + 0.25 * (v0 - vp2) ** 2

    gl = _linear_weight(frac)
    gr = 1.0 - gl
    al = gl / (WENO_EPS + bl) ** 2
    ar = gr / (WENO_EPS + br) ** 2
    wsum = al + ar
    out = (al * ql + ar * qr) / wsum
    return np.moveaxis(out, -1, axis)


class WenoInterp(Interpolator):
    """Dimension-by-dimension nonlinear WENO interpolation (4th order smooth)."""

    radius = 2
    kernel_label = "weno"

    def interp(
        self,
        cfab: FArrayBox,
        fine_region: Box,
        ratio: IntVectLike,
        crse_coords: Optional[FArrayBox] = None,
        fine_coords: Optional[FArrayBox] = None,
    ) -> np.ndarray:
        ratio = IntVect.coerce(ratio, fine_region.dim)
        dim = fine_region.dim
        gb = cfab.grown_box()
        arr = cfab.data  # (ncomp, *gb.shape())
        # interpolate axis by axis: after axis d the array covers fine
        # resolution in axes <= d and coarse resolution (with ghosts) beyond
        for d in range(dim):
            base, frac = _fine_fractions(
                np.arange(fine_region.lo[d], fine_region.hi[d] + 1), ratio[d])
            base = base - gb.lo[d]
            arr = weno_interp_1d(arr, base, frac, axis=d + 1)
        return arr
