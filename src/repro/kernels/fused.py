"""Fused WENO launch for the ``fused`` execution target.

Every target runs the same per-direction sweep
(:meth:`repro.numerics.fluxes.ConvectiveFlux.divergence`: transverse
pre-crop, scratch-backed sweep-major flux split, only the needed
interfaces, the rank-2 ``out=`` combination of
:meth:`repro.numerics.weno.WenoScheme.combine`).  What this target still
adds is the launch structure real GPU ports use (STREAmS-2's "fewer,
wider kernels"):

1. **One launch** — all ``dim`` directional sweeps run inside a single
   ``WENOxy``/``WENOxyz`` launch instead of ``dim`` launches.
2. **Shared primitives** — ``vel, p, a`` are computed once and handed to
   every direction.
3. **Optional JIT** — with numba importable (soft dependency; see
   :func:`get_jit_combine`) the combination is compiled into a single
   pass over contiguous rows (:func:`jit_rows`).

The first two measure 2 ms of a 24 ms RK stage on the 2-D benchmark
decks and nothing in 3-D (EXPERIMENTS.md "One WENO sweep"): the
arithmetic was nearly all of the old fused speed-up, and it is now every
target's.  Without the JIT the result is bitwise the ``host`` /
``device`` one.
"""

from __future__ import annotations

import numpy as np

from repro.numerics.weno import stencil_tables

#: the row kernel squares ``eps_eff`` itself (not the bounded ratio the
#: NumPy combination uses), so its floor must survive squaring
JIT_EPS_FLOOR = 1e-99


# -- optional numba JIT -------------------------------------------------------

_JIT_COMBINE = None
_JIT_FAILED = False


def get_jit_combine():
    """Compile (once) the numba row-combination kernel, or return None.

    numba is a *soft* dependency: it is only imported here, lazily, and
    any failure (missing module, compilation error) permanently falls
    back to the pure-NumPy path.  The kernel handles the 4-candidate
    (symbo/symoo) schemes; js5 always uses the NumPy path.
    """
    global _JIT_COMBINE, _JIT_FAILED
    if _JIT_COMBINE is not None or _JIT_FAILED:
        return _JIT_COMBINE
    try:
        import numba

        @numba.njit(cache=False, inline="always")
        def _window(v0, v1, v2, v3, v4, v5, C, D1, D2, w, eps, floor, limit):
            K = 1.0 / 3.0 + 4.0
            scale2 = (v0 * v0 + v1 * v1 + v2 * v2
                      + v3 * v3 + v4 * v4 + v5 * v5) / 6.0
            eps_eff = eps * scale2 + floor
            t = D1[0, 0] * v0 + D1[0, 1] * v1 + D1[0, 2] * v2
            s = D2[0, 0] * v0 + D2[0, 1] * v1 + D2[0, 2] * v2
            b0 = t * t + K * s * s
            t = D1[1, 0] * v1 + D1[1, 1] * v2 + D1[1, 2] * v3
            s = D2[1, 0] * v1 + D2[1, 1] * v2 + D2[1, 2] * v3
            b1 = t * t + K * s * s
            t = D1[2, 0] * v2 + D1[2, 1] * v3 + D1[2, 2] * v4
            s = D2[2, 0] * v2 + D2[2, 1] * v3 + D2[2, 2] * v4
            b2 = t * t + K * s * s
            t = D1[3, 0] * v3 + D1[3, 1] * v4 + D1[3, 2] * v5
            s = D2[3, 0] * v3 + D2[3, 1] * v4 + D2[3, 2] * v5
            b3 = t * t + K * s * s
            a0 = w[0] / ((eps_eff + b0) * (eps_eff + b0))
            a1 = w[1] / ((eps_eff + b1) * (eps_eff + b1))
            a2 = w[2] / ((eps_eff + b2) * (eps_eff + b2))
            a3 = w[3] / ((eps_eff + b3) * (eps_eff + b3))
            cap = w[3] / (1.0 - w[3]) * (a0 + a1 + a2)
            if a3 > cap:
                a3 = cap
            if limit > 0.0:
                bmin = min(b0, min(b1, b2))
                bmax = max(max(b0, max(b1, b2)), b3)
                if bmax > limit * (bmin + eps_eff):
                    a3 = 0.0
            q0 = C[0, 0] * v0 + C[0, 1] * v1 + C[0, 2] * v2
            q1 = C[1, 0] * v1 + C[1, 1] * v2 + C[1, 2] * v3
            q2 = C[2, 0] * v2 + C[2, 1] * v3 + C[2, 2] * v4
            q3 = C[3, 0] * v3 + C[3, 1] * v4 + C[3, 2] * v5
            return ((a0 * q0 + a1 * q1 + a2 * q2 + a3 * q3)
                    / (a0 + a1 + a2 + a3))

        @numba.njit(cache=False)
        def combine_rows(vp, vm, start, C, D1, D2, w, eps, floor, limit,
                         out):
            rows = vp.shape[0]
            nif = out.shape[1]
            for i in range(rows):
                for j in range(nif):
                    b = start + j
                    # plus part: forward window of F+; minus part: the
                    # mirror image = reversed window of F-
                    out[i, j] = _window(
                        vp[i, b], vp[i, b + 1], vp[i, b + 2],
                        vp[i, b + 3], vp[i, b + 4], vp[i, b + 5],
                        C, D1, D2, w, eps, floor, limit,
                    ) + _window(
                        vm[i, b + 5], vm[i, b + 4], vm[i, b + 3],
                        vm[i, b + 2], vm[i, b + 1], vm[i, b],
                        C, D1, D2, w, eps, floor, limit,
                    )

        _JIT_COMBINE = combine_rows
    except Exception:
        _JIT_FAILED = True
        _JIT_COMBINE = None
    return _JIT_COMBINE


def jit_rows(scheme, fplus, fminus, axis: int, start: int,
             f_iface: np.ndarray, scratch) -> None:
    """The ``rows`` hook of :meth:`ConvectiveFlux.divergence`: fill
    ``f_iface`` with the compiled kernel, which wants the sweep axis last
    and contiguous."""
    vp = np.moveaxis(fplus, axis, -1)
    vm = np.moveaxis(fminus, axis, -1)
    n, nif = vp.shape[-1], f_iface.shape[axis]
    rows = vp.size // n
    vpc = scratch.get("jit_vp", (rows, n))
    vmc = scratch.get("jit_vm", (rows, n))
    out = scratch.get("jit_out", (rows, nif))
    vpc.reshape(vp.shape)[...] = vp
    vmc.reshape(vm.shape)[...] = vm
    get_jit_combine()(vpc, vmc, start, *stencil_tables(4),
                      scheme.linear_weights(), scheme.eps, JIT_EPS_FLOOR,
                      scheme.downwind_limit, out)
    np.moveaxis(f_iface, axis, -1)[...] = out.reshape(vp.shape[:-1] + (nif,))


# -- fused sweep --------------------------------------------------------------

def fused_sweep(layout, eos, convective, u: np.ndarray, metrics, ng: int,
                scratch, jit: bool = False,
                reverse: bool = True) -> np.ndarray:
    """All directional convective sweeps from one set of primitives.

    Returns the accumulated convective right-hand side over the valid
    region: the sum of :meth:`ConvectiveFlux.divergence` over directions
    in the same order (``reverse`` selects the translated cpp ordering).
    """
    _, vel, p = eos.primitives(layout, u)
    prims = vel, p, eos.sound_speed(layout, u)
    rows = (jit_rows if jit and convective.scheme.n_stencils == 4
            and get_jit_combine() is not None else None)
    dim = layout.dim
    out = None
    for d in (range(dim - 1, -1, -1) if reverse else range(dim)):
        contrib = convective.divergence(layout, eos, u, metrics, d, ng,
                                        scratch=scratch, prims=prims,
                                        rows=rows)
        out = contrib if out is None else out + contrib
    return out
