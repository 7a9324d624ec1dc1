"""Error estimation: tagging cells for refinement.

Implements the regrid criterion discussed in the paper (Sec. II-B,
III-C): tag where the local undivided gradient of density exceeds a
threshold (classic shock indicator, |grad rho|).

Tags are per-cell boolean arrays over each patch's valid region; the
clustering stage (:mod:`repro.amr.cluster`) turns them into boxes.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.amr.multifab import MultiFab
from repro.backend import LaunchSpec, parallel_for


def undivided_gradient_magnitude(arr: np.ndarray) -> np.ndarray:
    """Max over directions of |one-sided differences| of a (nx[,ny[,nz]]) array.

    Undivided (no dx) so the threshold is resolution-independent per level,
    matching common AMReX tagging practice.
    """
    out = np.zeros_like(arr)
    for d in range(arr.ndim):
        diff = np.abs(np.diff(arr, axis=d))
        # forward difference applies to cells [0, n-2]
        sl_lo = [slice(None)] * arr.ndim
        sl_lo[d] = slice(0, arr.shape[d] - 1)
        np.maximum(out[tuple(sl_lo)], diff, out=out[tuple(sl_lo)])
        # backward difference applies to cells [1, n-1]
        sl_hi = [slice(None)] * arr.ndim
        sl_hi[d] = slice(1, arr.shape[d])
        np.maximum(out[tuple(sl_hi)], diff, out=out[tuple(sl_hi)])
    return out


def _gradient_on_valid(fab, comp: int) -> np.ndarray:
    """Gradient magnitude on the valid region, using one ghost layer if present.

    Without ghost data a jump sitting exactly on a patch seam is invisible
    to both neighboring patches; callers should FillBoundary first.
    """
    if fab.ngrow.min() >= 1:
        grown = fab.view(fab.box.grow(1))[comp]
        g = undivided_gradient_magnitude(grown)
        inner = tuple(slice(1, s - 1) for s in g.shape)
        return g[inner]
    return undivided_gradient_magnitude(fab.valid()[comp])


def _tag_launch(name: str, mf: MultiFab, i: int, fn) -> np.ndarray:
    """Run one fab's tagging criterion as a labeled launch."""
    return parallel_for(name, fn, mf.ba[i].num_pts(),
                        LaunchSpec(kernel_class="tagging", rank=mf.dm[i]))


def tag_density_gradient(mf: MultiFab, rho_comp: int, threshold: float) -> Dict[int, np.ndarray]:
    """Boolean tags per box index, using |grad rho| > threshold."""
    return {i: _tag_launch(
                "Tag_gradient", mf, i,
                lambda fab=fab: _gradient_on_valid(fab, rho_comp) > threshold)
            for i, fab in mf}


def tagged_cells(mf: MultiFab, tags: Dict[int, np.ndarray]) -> np.ndarray:
    """Collect global (n, dim) integer indices of all tagged cells."""
    pieces: List[np.ndarray] = []
    for i, mask in tags.items():
        if not mask.any():
            continue
        idx = np.argwhere(mask)
        idx += np.array(mf.ba[i].lo.tup(), dtype=idx.dtype)
        pieces.append(idx)
    if not pieces:
        return np.empty((0, mf.dim), dtype=np.int64)
    return np.concatenate(pieces, axis=0)
