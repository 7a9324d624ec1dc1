"""Berger-Rigoutsos clustering of a level's tags into refinement boxes.

Tags are one boolean mask over the level's domain; :func:`cluster_tags`
covers them with a small set of rectangular boxes, each with at least
``grid_eff`` of its cells tagged — the classic Berger-Rigoutsos (1991)
signature/hole/inflection algorithm that AMReX uses inside
``MakeNewGrids``, a node's signatures summed from the mask.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import (BoxArray, by_lo, chop, coarsen, disjoint,
                                lohi_of, meet, nonempty, refine)
from repro.amr.intvect import IntVect, IntVectLike


def buffer_tags(tags: np.ndarray, n_buffer: int, domain: Box) -> np.ndarray:
    """The mask over ``domain`` of the tagged cells ``(n, dim)``, each
    grown by ``n_buffer`` cells in every direction (inside the domain): a
    dilation, one axis and one shift at a time.

    This is AMReX's ``n_error_buf``: it keeps features from escaping the
    refined region between regrids (Sec. II-B's regrid-frequency logic
    assumes a buffer proportional to how far flow convects per regrid).
    """
    mask = np.zeros(domain.shape(), dtype=bool)
    mask[tuple((tags - np.array(domain.lo.tup())).T)] = True
    for d in range(mask.ndim):
        grown = mask.copy()
        for k in range(1, n_buffer + 1):
            lo, hi = ((slice(None),) * d + (s,)
                      for s in (slice(None, -k), slice(k, None)))
            grown[hi] |= mask[lo]
            grown[lo] |= mask[hi]
        mask = grown
    return mask


def cluster_tags(
    mask: np.ndarray,
    domain: Box,
    grid_eff: float = 0.7,
    blocking_factor: IntVectLike = 8,
    max_grid_size: IntVectLike = 128,
    min_size: int = 2,
) -> BoxArray:
    """Cover the tags of ``mask`` (over ``domain``) with boxes via
    Berger-Rigoutsos, then align.

    Returned boxes are clipped to ``domain``, aligned to
    ``blocking_factor``, chopped to ``max_grid_size``, and pairwise
    disjoint.
    """
    bf = IntVect.coerce(blocking_factor, domain.dim)
    if not mask.any():
        return BoxArray([])
    dom = lohi_of([domain])[0]
    whole = ([0] * mask.ndim, [n - 1 for n in mask.shape])
    raw = np.array(_berger_rigoutsos(mask, whole, grid_eff, min_size)) + dom[0]

    def aligned(lohi):
        """Expanded to the covering bf-aligned boxes, inside the domain."""
        lohi = meet(refine(coarsen(lohi, bf), bf), dom)
        return lohi[nonempty(lohi)]

    # alignment can introduce overlap: make disjoint; then re-align any
    # off-bf fragments that left by snapping outward, and make disjoint
    # again (both times preferring earlier boxes)
    final = disjoint(aligned(disjoint(aligned(raw))))
    return BoxArray(by_lo(chop(final, max_grid_size)))


def _berger_rigoutsos(mask: np.ndarray, region: Tuple[List[int], List[int]],
                      grid_eff: float, min_size: int) -> List[Tuple[list, list]]:
    """Covering boxes ``(lo, hi)`` of the tags inside ``region`` (in mask
    indices)."""
    dim = mask.ndim
    sub = mask[tuple(slice(l, h + 1) for l, h in zip(*region))]
    sigs = [np.add.reduce(sub, axis=tuple(k for k in range(dim) if k != d),
                          dtype=np.intp).tolist() for d in range(dim)]
    # the tags' bounding box: trimming planes without tags leaves the
    # other axes' signatures as they are
    lo, hi = list(region[0]), list(region[0])
    for d, s in enumerate(sigs):
        first = next(k for k, n in enumerate(s) if n)
        last = len(s) - next(k for k, n in enumerate(reversed(s)) if n)
        sigs[d], lo[d], hi[d] = s[first:last], lo[d] + first, lo[d] + last - 1
    size, total = [h - l + 1 for l, h in zip(lo, hi)], sum(sigs[0])
    done = total / math.prod(size) >= grid_eff or max(size) <= min_size
    cut = None if done else _find_cut(sigs, lo, size, min_size)
    left = 0 if cut is None else sum(sigs[cut[0]][:cut[1] - lo[cut[0]]])
    if left in (0, total):
        return [(lo, hi)]
    below, above = list(hi), list(lo)
    below[cut[0]], above[cut[0]] = cut[1] - 1, cut[1]
    return (_berger_rigoutsos(mask, (lo, below), grid_eff, min_size)
            + _berger_rigoutsos(mask, (above, hi), grid_eff, min_size))


def _find_cut(sigs: Sequence[List[int]], lo: List[int], size: List[int],
              min_size: int) -> Optional[Tuple[int, int]]:
    """Choose a cut (axis, index) of the tags' bounding box (low corner
    ``lo``, ``size`` cells; ``sigs`` its tag counts per plane along each
    axis) by hole, then inflection, then bisection.  A cut at plane ``k``
    of the box leaves ``min_size`` cells on either side."""
    # 1. holes: a zero plane strictly inside, the one closest to the
    # center of the longest axis (the first of equals)
    best_hole = None
    for d, s in enumerate(sigs):
        half = size[d] / 2
        holes = [k for k in range(max(0, min_size),
                                  min(size[d], size[d] - min_size + 1))
                 if not s[k]]
        if holes:
            k = min(holes, key=lambda k: abs(k - half))
            score = (-size[d], abs(k - half))
            if best_hole is None or score < best_hole[0]:
                best_hole = (score, d, lo[d] + k)
    if best_hole is not None:
        return best_hole[1], best_hole[2]
    # 2. inflection: largest jump in the discrete Laplacian of a signature
    # (of equal jumps, the first in the order np.argsort gives them)
    best_inf = None
    for d, s in enumerate(sigs):
        if len(s) < 4 or size[d] < 2 * min_size:
            continue
        lap = [a - 2 * b + c for a, b, c in zip(s, s[1:], s[2:])]
        jump = [abs(b - a) for a, b in zip(lap, lap[1:])]
        # jump k is a cut at plane k + 2
        first, end = max(0, min_size - 2), min(len(jump), size[d] - min_size - 1)
        if first >= end:
            continue
        k = next(k for k in np.argsort(-np.array(jump, dtype=np.intp)).tolist()
                 if first <= k < end)
        top = jump[k]
        if best_inf is None or top > best_inf[0]:
            best_inf = (top, d, lo[d] + k + 2)
    if best_inf is not None and best_inf[0] > 0:
        return best_inf[1], best_inf[2]
    # 3. bisect the longest axis
    d = size.index(max(size))
    if size[d] < 2 * min_size:
        return None
    return d, lo[d] + size[d] // 2
