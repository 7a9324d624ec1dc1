"""Berger-Rigoutsos clustering of tagged cells into refinement boxes.

Given the set of tagged cells produced by :mod:`repro.amr.tagging`, build a
small set of rectangular boxes that cover every tag with at least
``grid_eff`` fraction of covered cells tagged — the classic
Berger-Rigoutsos (1991) signature/hole/inflection algorithm that AMReX
uses inside ``MakeNewGrids``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import (BoxArray, boxes_of, by_lo, coarsen, disjoint,
                                lohi_of, meet, nonempty, refine)
from repro.amr.intvect import IntVect, IntVectLike


def buffer_tags(tags: np.ndarray, n_buffer: int, domain: Box) -> np.ndarray:
    """Grow each tagged cell by ``n_buffer`` cells in every direction.

    This is AMReX's ``n_error_buf``: it keeps features from escaping the
    refined region between regrids (Sec. II-B's regrid-frequency logic
    assumes a buffer proportional to how far flow convects per regrid).
    """
    if len(tags) == 0 or n_buffer == 0:
        return tags
    dim = tags.shape[1]
    offsets = np.stack(
        np.meshgrid(*([np.arange(-n_buffer, n_buffer + 1)] * dim), indexing="ij"),
        axis=-1,
    ).reshape(-1, dim)
    grown = (tags[:, None, :] + offsets[None, :, :]).reshape(-1, dim)
    lo = np.array(domain.lo.tup())
    hi = np.array(domain.hi.tup())
    np.clip(grown, lo, hi, out=grown)
    return np.unique(grown, axis=0)


def cluster_tags(
    tags: np.ndarray,
    domain: Box,
    grid_eff: float = 0.7,
    blocking_factor: IntVectLike = 8,
    max_grid_size: IntVectLike = 128,
    min_size: int = 2,
) -> BoxArray:
    """Cover tagged cells with boxes via Berger-Rigoutsos, then align.

    Returned boxes are clipped to ``domain``, aligned to
    ``blocking_factor``, chopped to ``max_grid_size``, and pairwise
    disjoint.  ``tags`` is an (n, dim) integer index array.
    """
    dim = domain.dim
    bf = IntVect.coerce(blocking_factor, dim)
    ms = IntVect.coerce(max_grid_size, dim)
    if len(tags) == 0:
        return BoxArray([])
    raw = np.array(_berger_rigoutsos(np.asarray(tags, dtype=np.int64),
                                     grid_eff, min_size))
    dom = lohi_of([domain])[0]

    def aligned(lohi):
        """Expanded to the covering bf-aligned boxes, inside the domain."""
        lohi = meet(refine(coarsen(lohi, bf), bf), dom)
        return lohi[nonempty(lohi)]

    # alignment can introduce overlap: make disjoint; then re-align any
    # off-bf fragments that left by snapping outward, and make disjoint
    # again (both times preferring earlier boxes)
    final = disjoint(aligned(disjoint(aligned(raw))))
    big = (final[:, 1] - final[:, 0] + 1 > np.array(ms.tup())).any(axis=1)
    chopped = [c for b in boxes_of(final[big]) for c in b.max_size_chop(ms)]
    return BoxArray(by_lo(np.concatenate([final[~big],
                                          lohi_of(chopped, dim)])))


def _berger_rigoutsos(tags: np.ndarray, grid_eff: float,
                      min_size: int) -> List[np.ndarray]:
    """Covering boxes, each a ``(2, dim)`` array."""
    lo, hi = tags.min(axis=0), tags.max(axis=0)
    bbox, size = np.stack([lo, hi]), (hi - lo + 1).tolist()
    eff = len(tags) / math.prod(size)
    if eff >= grid_eff or all(s <= min_size for s in size):
        return [bbox]
    cut = _find_cut(tags, lo.tolist(), size, min_size)
    if cut is None:
        return [bbox]
    axis, at = cut
    left = tags[tags[:, axis] < at]
    right = tags[tags[:, axis] >= at]
    if len(left) == 0 or len(right) == 0:
        return [bbox]
    return _berger_rigoutsos(left, grid_eff, min_size) + _berger_rigoutsos(
        right, grid_eff, min_size
    )


def _find_cut(tags: np.ndarray, lo: List[int], size: List[int],
              min_size: int) -> Optional[Tuple[int, int]]:
    """Choose a cut (axis, index) of the tags' bounding box (low corner
    ``lo``, ``size`` cells) by hole, then inflection, then bisection."""
    dim = tags.shape[1]
    hi = [l + n - 1 for l, n in zip(lo, size)]
    # signatures: tag counts per plane along each axis
    sigs = []
    for d in range(dim):
        counts = np.bincount(
            tags[:, d] - lo[d], minlength=size[d]
        )
        sigs.append(counts)
    # 1. holes: a zero plane strictly inside
    best_hole = None
    for d in range(dim):
        zeros = np.nonzero(sigs[d] == 0)[0]
        for z in zeros:
            at = lo[d] + int(z)
            if lo[d] + min_size <= at <= hi[d] - min_size + 1:
                # prefer the hole closest to the center of the longest axis
                dist = abs(z - size[d] / 2)
                score = (-size[d], dist)
                if best_hole is None or score < best_hole[0]:
                    best_hole = (score, d, at)
    if best_hole is not None:
        return best_hole[1], best_hole[2]
    # 2. inflection: largest jump in the discrete Laplacian of a signature
    best_inf = None
    for d in range(dim):
        s = sigs[d]
        if len(s) < 4 or size[d] < 2 * min_size:
            continue
        lap = s[:-2] - 2 * s[1:-1] + s[2:]
        jump = np.abs(np.diff(lap))
        for k in np.argsort(-jump):
            at = lo[d] + int(k) + 2
            if lo[d] + min_size <= at <= hi[d] - min_size + 1:
                val = jump[k]
                if best_inf is None or val > best_inf[0]:
                    best_inf = (val, d, at)
                break
    if best_inf is not None and best_inf[0] > 0:
        return best_inf[1], best_inf[2]
    # 3. bisect the longest axis
    d = int(np.argmax([size[k] for k in range(dim)]))
    if size[d] < 2 * min_size:
        return None
    return d, lo[d] + size[d] // 2
