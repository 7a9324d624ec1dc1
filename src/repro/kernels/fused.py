"""Fused WENO sweep for the ``fused`` execution target.

The host path (:meth:`repro.numerics.fluxes.ConvectiveFlux.divergence`)
launches one kernel per direction, each of which recomputes the
primitive variables, reconstructs every interface along the sweep axis,
and allocates every intermediate array.  This module is the optimized
equivalent — one wide launch per right-hand side that applies the three
classic port optimizations (STREAmS-2's "fewer, wider kernels"; the
paper's scratch-array hoisting, Sec. IV-B):

1. **Shared primitives** — ``rho, vel, p, a`` are computed once and
   reused by all ``dim`` directional sweeps.
2. **Work restriction** — like the host path, transverse ghost rows are
   cropped *before* the flux (exact: reconstruction only couples cells
   along the sweep axis; both share ``_crop_transverse``); here, in
   addition, only the ``nvalid + 1`` needed interfaces are combined,
   instead of every interface of the grown sweep axis.
3. **Scratch reuse + fast combination** — all intermediates live in a
   role-keyed :class:`repro.backend.fused.ScratchCache` and the WENO
   combination runs through ``out=`` ufuncs with a rank-2 smoothness
   factorization:  ``smoothness_matrix`` is ``minv.T @ diag(0, 1, K)
   @ minv`` with ``K = 1/3 + 4``, so ``beta = (d1 . v)^2 + K (d2 . v)^2``
   — 2 dot products instead of a 9-term quadratic form.

The grid axes are the trailing ``dim`` axes of ``u``: one patch
``(ncons, *grown)`` or a batch of equal-shape patches
``(ncons, B, *grown)`` (see :mod:`repro.kernels.api`), each member
bitwise what the per-patch sweep gives.

Optionally the combination is JIT-compiled with numba (soft dependency;
see :func:`get_jit_combine`) into a single pass over contiguous rows.

Accuracy contract: the Lax-Friedrichs ``alpha`` is still computed per
patch on its **full grown array** — bitwise identical to the host path —
so the only divergence from ``host`` is floating-point re-association
inside the combination, bounded at 1e-7 relative L2 on the DMR deck by
``tests/backend/test_fused.py`` (the paper's port-validation criterion).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.numerics.fluxes import (_crop_transverse, curvilinear_flux,
                                   wave_speed)
from repro.numerics.weno import (CANDIDATE_OFFSETS, WENO_EPS_FLOOR,
                                 _cell_average_matrix, interface_coefficients)

#: the d^2 energy weight in the smoothness quadrature
#: (int p'^2 -> a1^2, int p''^2 -> (1/3 + 4) a2^2; see smoothness_matrix)
BETA_K = 1.0 / 3.0 + 4.0


@lru_cache(maxsize=None)
def stencil_tables(nst: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-stencil coefficient tables ``(C, D1, D2)``, each ``(nst, 3)``.

    ``C[r]`` are the interface-value coefficients; ``D1[r]``/``D2[r]``
    are rows 1 and 2 of ``inv(_cell_average_matrix)`` so that
    ``beta_r = (D1[r] . v)^2 + BETA_K * (D2[r] . v)^2`` equals
    ``v.T @ smoothness_matrix @ v`` exactly (same factorization, fewer
    flops).  Stencil ``r`` reads window cells ``r, r+1, r+2`` (window
    index = offset + 2).
    """
    C = np.array([interface_coefficients(CANDIDATE_OFFSETS[r])
                  for r in range(nst)])
    minvs = [np.linalg.inv(_cell_average_matrix(CANDIDATE_OFFSETS[r]))
             for r in range(nst)]
    D1 = np.array([m[1] for m in minvs])
    D2 = np.array([m[2] for m in minvs])
    return C, D1, D2


# -- fast NumPy combination ---------------------------------------------------

def combine_into(scheme, cells, scratch, out: np.ndarray,
                 add: bool = False) -> None:
    """WENO-combine a 6-cell window stack with ``out=`` ufuncs + scratch.

    Numerically equivalent to :meth:`WenoScheme.combine` (identical
    algebra, different floating-point association).  ``cells`` is the
    list of 6 same-shaped arrays at offsets -2..3; with ``add`` the
    result is accumulated into ``out`` instead of overwriting it.
    """
    nst = scheme.n_stencils
    w = scheme.linear_weights()
    C, D1, D2 = stencil_tables(nst)
    S = out.shape
    t1 = scratch.get("cmb_t1", S)
    t2 = scratch.get("cmb_t2", S)
    eps_eff = scratch.get("cmb_eps", S)
    betas = scratch.get("cmb_betas", (nst,) + S)

    # eps_eff = eps * <v^2> + floor over the full 6-point window
    np.multiply(cells[0], cells[0], out=eps_eff)
    for c in cells[1:]:
        np.multiply(c, c, out=t1)
        eps_eff += t1
    eps_eff *= scheme.eps / 6.0
    eps_eff += WENO_EPS_FLOOR

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

    # relative-smoothness limiter inputs, before betas become alphas
    rough = None
    if nst == 4 and scheme.downwind_limit > 0:
        bcut = scratch.get("cmb_bcut", S)
        bmax = scratch.get("cmb_bmax", S)
        np.minimum(betas[0], betas[1], out=bcut)
        np.minimum(bcut, betas[2], out=bcut)
        bcut += eps_eff
        bcut *= scheme.downwind_limit
        np.maximum(betas[0], betas[1], out=bmax)
        np.maximum(bmax, betas[2], out=bmax)
        np.maximum(bmax, betas[3], out=bmax)
        rough = scratch.get("cmb_rough", S, dtype=bool)
        np.greater(bmax, bcut, out=rough)

    # betas -> alphas in place: alpha_r = w_r / (eps_eff + beta_r)^2
    for r in range(nst):
        b = betas[r]
        b += eps_eff
        np.multiply(b, b, out=b)
        np.divide(w[r], b, out=b)
    alphas = betas

    np.add(alphas[0], alphas[1], out=t1)
    t1 += alphas[2]
    if nst == 4:
        # downwind cap: alpha3 <= C3/(1-C3) * sum(upwind alphas)
        np.multiply(t1, w[3] / (1.0 - w[3]), out=t2)
        np.minimum(alphas[3], t2, out=alphas[3])
        if rough is not None:
            alphas[3][rough] = 0.0
        t1 += alphas[3]  # t1 = alpha sum

    # numerator sum_r alpha_r q_r
    q = scratch.get("cmb_q", S)
    num = scratch.get("cmb_num", S)
    for r in range(nst):
        v0, v1, v2 = cells[r], cells[r + 1], cells[r + 2]
        np.multiply(v0, C[r, 0], out=q)
        np.multiply(v1, C[r, 1], out=t2)
        q += t2
        np.multiply(v2, C[r, 2], out=t2)
        q += t2
        q *= alphas[r]
        if r == 0:
            np.copyto(num, q)
        else:
            num += q

    if add:
        np.divide(num, t1, out=num)
        out += num
    else:
        np.divide(num, t1, out=out)


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


# -- fused sweep --------------------------------------------------------------

def fused_sweep(layout, eos, convective, u: np.ndarray, metrics, ng: int,
                scratch, jit: bool = False,
                reverse: bool = True) -> np.ndarray:
    """All directional convective sweeps as one fused computation.

    Returns the accumulated convective right-hand side over the valid
    region — the same value (up to floating-point re-association) as
    summing :meth:`ConvectiveFlux.divergence` over directions in the
    same order (``reverse`` selects the translated cpp ordering).
    """
    if ng < convective.nghost:
        raise ValueError(
            f"need at least {convective.nghost} ghost cells, got {ng}")
    dim = layout.dim
    grid_shape = u.shape[-dim:]
    valid = tuple(slice(ng, s - ng) for s in grid_shape)
    scheme = convective.scheme
    dtype = u.dtype

    # shared primitives: computed once, used by every direction
    rho, vel, p = eos.primitives(layout, u)
    a = eos.sound_speed(layout, u)
    J = metrics.jacobian()
    Jb = np.broadcast_to(J, u.shape[1:])
    Jvalid = Jb[(Ellipsis,) + valid]

    jit_rows = get_jit_combine() if (jit and scheme.n_stencils == 4) else None

    # the return value is a real allocation (scratch arrays are recycled
    # by the next launch; the caller keeps the RHS across the RK update)
    acc = np.zeros((layout.ncons,) + Jvalid.shape, dtype=dtype)

    directions = range(dim - 1, -1, -1) if reverse else range(dim)
    for d in directions:
        axis = u.ndim - dim + d
        m = metrics.m(d)
        # LF alpha per box on its FULL grown array: bitwise-identical to
        # the host path (a max over a superset of the cropped cells would
        # round the same, but keeping the op sequence identical makes
        # the drift argument purely about the combination step)
        lam = wave_speed(vel, a, m, J)
        alpha = lam.max(axis=tuple(range(-dim, 0)), keepdims=True)

        # transverse pre-crop: reconstruction along `axis` never mixes
        # transverse neighbors, so ghost rows are dead work
        u_c, vel_c, p_c, m_c, J_c = (_crop_transverse(x, d, ng, dim)
                                     for x in (u, vel, p, m, Jb))

        fhat = curvilinear_flux(layout, u_c, vel_c, p_c, m_c,
                                form=convective.split_form)
        S = fhat.shape
        ju = scratch.get("ju", S, dtype)
        fplus = scratch.get("fplus", S, dtype)
        fminus = scratch.get("fminus", S, dtype)
        np.multiply(u_c, J_c[None], out=ju)
        ju *= alpha
        np.subtract(fhat, ju, out=fminus)
        fminus *= 0.5
        np.add(fhat, ju, out=fplus)
        fplus *= 0.5

        # only the nv+1 interfaces of the valid region are combined
        nv = grid_shape[d] - 2 * ng
        nif = nv + 1
        start = ng - 3
        vp = np.moveaxis(fplus, axis, -1)
        vm = np.moveaxis(fminus, axis, -1)
        lead = vp.shape[:-1]
        f_iface = scratch.get("f_iface", lead + (nif,), dtype)
        if jit_rows is not None:
            n = vp.shape[-1]
            rows = int(np.prod(lead))
            vpc = scratch.get("jit_vp", (rows, n), dtype)
            vmc = scratch.get("jit_vm", (rows, n), dtype)
            vpc.reshape(vp.shape)[...] = vp
            vmc.reshape(vm.shape)[...] = vm
            C, D1, D2 = stencil_tables(4)
            jit_rows(vpc, vmc, start, C, D1, D2, scheme.linear_weights(),
                     scheme.eps, WENO_EPS_FLOOR, scheme.downwind_limit,
                     f_iface.reshape(rows, nif))
        else:
            cells = [vp[..., start + k: start + k + nif] for k in range(6)]
            combine_into(scheme, cells, scratch, f_iface)
            cells_m = [vm[..., start + k: start + k + nif]
                       for k in range(6)]
            # mirror-image reconstruction == combine of the reversed
            # window (flip-reconstruct-flip without the flips)
            combine_into(scheme, cells_m[::-1], scratch, f_iface, add=True)

        df = scratch.get("df", lead + (nv,), dtype)
        np.subtract(f_iface[..., 1:], f_iface[..., :-1], out=df)
        Jv = np.moveaxis(Jvalid, axis - 1, -1)
        np.divide(df, Jv, out=df)
        acc_view = np.moveaxis(acc, axis, -1)
        acc_view -= df
    return acc
