"""Reference tagging, buffering and clustering: the tag-list builders that
the level mask, its dilation and Berger-Rigoutsos on mask signatures
replaced, kept verbatim (``tests/amr/test_cluster_oracle.py`` compares
them with :mod:`repro.amr.cluster`), and ``BoxArray.complement`` as it
was: one round of cuts per n-th box a region meets.

Tags here are an ``(n, dim)`` array of cell indices: one launch and one
``argwhere`` per fab, an ``np.unique`` of every tag grown by the buffer,
``bincount`` signatures and boolean splits of the tag list per node, and
``Box.max_size_chop`` per oversized box.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import (BoxArray, boxes_of, by_lo, coarsen, grow,
                                lohi_of, meet, nonempty, refine, subtract)
from repro.amr.intvect import IntVect, IntVectLike
from repro.amr.multifab import MultiFab
from repro.amr.tagging import undivided_gradient_magnitude
from repro.backend import LaunchSpec, current_backend


# -- tagging ---------------------------------------------------------------

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
    return current_backend().parallel_for(
        name, fn, mf.ba[i].num_pts(),
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


# -- buffering and clustering ----------------------------------------------

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


def max_size_chop(self: Box, max_size: IntVectLike) -> List[Box]:
    """Chop recursively so no resulting box exceeds ``max_size`` cells per direction."""
    ms = IntVect.coerce(max_size, self.dim)
    out: List[Box] = []
    stack = [self]
    while stack:
        b = stack.pop()
        for d in range(self.dim):
            if b.size()[d] > ms[d]:
                # split into ceil(size/max) nearly-equal chunks: cut at lo + half
                n_chunks = -(-b.size()[d] // ms[d])
                cut = b.lo[d] + (b.size()[d] // n_chunks)
                a, c = b.chop(d, cut)
                stack.append(a)
                stack.append(c)
                break
        else:
            out.append(b)
    out.sort(key=lambda b: b.lo.tup())
    return out


def disjoint(lohi: np.ndarray) -> np.ndarray:
    """The same region as disjoint boxes: each box loses what the boxes
    before it (as already cut up) cover."""
    clash = np.tril(nonempty(meet(lohi[:, None], lohi[None])), -1).any(axis=1)
    out = [lohi[:0]]
    for b, c in zip(lohi, clash):
        out.append(subtract(b[None], np.concatenate(out)) if c else b[None])
    return np.concatenate(out)


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
    chopped = [c for b in boxes_of(final[big]) for c in max_size_chop(b, ms)]
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


def diff(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Boxes ``a[k]`` minus ``b[k]`` (or minus the one box ``b``) as
    disjoint pieces, and the ``k`` each piece came from: a box apart from
    its subtrahend stays whole, the others are chopped axis by axis, the
    part below the overlap first, then the part above."""
    dim = a.shape[2]
    cut = meet(a, b)
    hit = nonempty(cut)
    out = np.empty((len(a), 2 * dim + 1, 2, dim), dtype=np.int64)
    keep = np.zeros(out.shape[:2], dtype=bool)
    out[:, 0], keep[:, 0] = a, ~hit
    rem = a.copy()
    for d in range(dim):
        for side, edge in ((0, cut[:, 0, d] - 1), (1, cut[:, 1, d] + 1)):
            piece = out[:, 1 + 2 * d + side]
            piece[...] = rem
            piece[:, 1 - side, d] = edge
            keep[:, 1 + 2 * d + side] = hit & (
                piece[:, 0, d] <= piece[:, 1, d])
        rem[:, :, d] = cut[:, :, d]
    return out[keep], np.nonzero(keep)[0]


def complement(self: BoxArray, regions) -> Tuple[np.ndarray, np.ndarray]:
    """``BoxArray.complement`` as it was, one round per n-th box a region
    meets, every piece cut in every round (by :func:`diff` as it was, one
    axis and side at a time).  ``self`` is a ``BoxArray``."""
    regions = self._regions(regions)
    q, j, _ = self.intersect(regions)
    pieces, owner = regions, np.arange(len(regions))
    nth = np.arange(len(q)) - np.searchsorted(q, q, side="left")
    for n in range(nth.max() + 1 if len(q) else 0):
        # round n: every region still meeting an n-th box loses it
        # (the others lose an empty box, i.e. nothing)
        sub = np.zeros_like(regions)
        sub[:, 0] = 1
        sub[q[nth == n]] = self.lohi[j[nth == n]]
        pieces, src = diff(pieces, sub[owner])
        owner = owner[src]
    return pieces, owner


def _clip_to_coverage(self, ba_c: BoxArray, lev: int) -> BoxArray:
    """Proper nesting: keep new grids ``n_proper`` cells inside level
    ``lev``'s coverage (measured from any uncovered region inside the
    domain; the physical boundary needs no buffer).  ``self`` is an
    ``AmrCore``."""
    cov = self.box_arrays[lev]
    assert cov is not None
    # uncovered regions of the level-lev domain, grown by the buffer
    forbidden = grow(complement(cov, self.geoms[lev].domain)[0],
                     self.amr_config.n_proper)
    # what the level covers of each new grid, outside every buffer,
    # and of that what no earlier piece already holds
    pieces = subtract(cov.intersect(ba_c.lohi)[2], forbidden)
    return BoxArray(by_lo(disjoint(pieces)))
