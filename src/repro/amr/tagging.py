"""Error estimation: tagging cells for refinement.

Implements the regrid criterion discussed in the paper (Sec. II-B,
III-C): tag where the local undivided gradient of density exceeds a
threshold (classic shock indicator, |grad rho|).

Tags are one boolean mask over the level's domain, written one group
array of the level at a time; the clustering stage
(:mod:`repro.amr.cluster`) turns the mask into boxes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import num_pts
from repro.amr.multifab import MultiFab
from repro.amr.plan import rank_shares
from repro.backend import current_backend


def undivided_gradient_magnitude(arr: np.ndarray,
                                 ndim: Optional[int] = None) -> np.ndarray:
    """Max over directions of |one-sided differences| along the last
    ``ndim`` (default: all) axes of ``arr``.

    Undivided (no dx) so the threshold is resolution-independent per level,
    matching common AMReX tagging practice.
    """
    out = np.zeros_like(arr)
    for d in range(arr.ndim - (ndim or arr.ndim), arr.ndim):
        diff = np.abs(np.diff(arr, axis=d))
        # the forward difference applies to cells [0, n-2], the backward
        # one to cells [1, n-1]
        for cells in (slice(None, -1), slice(1, None)):
            part = (slice(None),) * d + (cells,)
            np.maximum(out[part], diff, out=out[part])
    return out


def tag_density_gradient(mf: MultiFab, rho_comp: int, threshold: float,
                         domain: Box) -> np.ndarray:
    """The mask over ``domain`` of the cells where |grad rho| > threshold:
    one pass per group array, in one ``Tag_gradient`` launch per owning
    rank charged its boxes' valid points.  The gradient reads one ghost layer
    where there is one (a jump on a patch seam is then seen from both
    sides; callers fill ghosts first)."""
    dim, inner = mf.dim, int(mf.ngrow.min() >= 1)
    mask = np.zeros(domain.shape(), dtype=bool)
    boxes = mf.ba.lohi - np.array(domain.lo.tup())
    # the valid cells plus one ghost layer, or the valid cells alone
    pad = [g - inner for g in mf.ngrow]

    def tag() -> None:
        for ids, arr in zip(mf.groups, mf.arrays):
            rho = arr[(rho_comp, slice(None)) + tuple(
                slice(p, n - p) for p, n in zip(pad, arr.shape[2:]))]
            g = undivided_gradient_magnitude(rho, dim)[
                (slice(None),) + (slice(inner, -inner or None),) * dim]
            for b, i in enumerate(ids):
                mask[tuple(slice(l, h + 1) for l, h in boxes[i].T.tolist())] = (
                    g[b] > threshold)

    current_backend().launch_shares("Tag_gradient", tag, rank_shares(
        np.asarray(mf.dm.ranks(), dtype=np.intp), num_pts(boxes), "tagging"))
    return mask
