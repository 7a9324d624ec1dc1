"""Collections of boxes covering (part of) a level's domain, and the
batched box algebra every metadata producer runs on.

``BoxArray`` mirrors ``amrex::BoxArray``: an ordered list of disjoint
cell-centered boxes at a single refinement level.  Its working form is
``lohi``, an ``(N, 2, dim)`` int64 array (``[:, 0]`` low corners,
``[:, 1]`` high corners, both inclusive); scalar :class:`Box` objects are
made on demand, for the API edges (``ba[i]``, ``fab.box``) that want one.

The module-level functions are the box algebra over such arrays — many
boxes per NumPy call instead of one ``Box`` object per overlap: regrid,
clustering and every communication plan are built from them, and the
metadata-only Summit-scale decompositions of ``repro.perfmodel`` (tens of
thousands of boxes) query the same code.  Where an operation yields
several pieces per box (:func:`diff`) they come in the order of
``Box.diff``: input box by input box, per direction the low piece then
the high one.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.amr.box import Box
from repro.amr.intvect import IntVect, IntVectLike

_SIDE = np.array([[-1], [1]])   # grows a lohi array outward
_HI = np.array([[0], [1]])      # selects the high corners


def lohi_of(boxes: Sequence[Box], dim: int = 0) -> np.ndarray:
    """The ``(N, 2, dim)`` array of a sequence of boxes (``dim`` says
    which, of no boxes)."""
    return np.array([(b.lo.tup(), b.hi.tup()) for b in boxes], dtype=np.int64
                    ).reshape(len(boxes), 2, boxes[0].dim if boxes else dim)


def boxes_of(lohi: np.ndarray) -> List[Box]:
    return [Box(lo, hi) for lo, hi in lohi.tolist()]


def _vec(n: IntVectLike) -> np.ndarray:
    return np.asarray(n.tup() if isinstance(n, IntVect) else n)


def grow(lohi: np.ndarray, n: IntVectLike) -> np.ndarray:
    return lohi + _SIDE * _vec(n)


def coarsen(lohi: np.ndarray, ratio: IntVectLike) -> np.ndarray:
    """Covers at least the original region (floor division, as AMReX)."""
    return lohi // _vec(ratio)


def refine(lohi: np.ndarray, ratio: IntVectLike) -> np.ndarray:
    return (lohi + _HI) * _vec(ratio) - _HI


def num_pts(lohi: np.ndarray) -> np.ndarray:
    """Cells per box (0 for an empty one)."""
    return np.maximum(lohi[..., 1, :] - lohi[..., 0, :] + 1, 0).prod(axis=-1)


def nonempty(lohi: np.ndarray) -> np.ndarray:
    """Which boxes hold at least one cell."""
    return (lohi[..., 0, :] <= lohi[..., 1, :]).all(axis=-1)


def meet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise (broadcast) intersections; empty where a pair is apart."""
    out = np.maximum(a, b)
    np.minimum(a[..., 1, :], b[..., 1, :], out=out[..., 1, :])
    return out


def _ragged(n: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``k`` and ``0..n[k]-1`` for every ``k``, concatenated."""
    k = np.repeat(np.arange(len(n)), n)
    return k, np.arange(len(k)) - np.repeat(np.cumsum(n) - n, n)


def _distinct(x: np.ndarray) -> np.ndarray:
    """Sorted distinct values (``np.unique`` imports ``numpy.ma`` on first
    use: 1 MB of resident memory a run without AMR never needed)."""
    x = np.sort(x)
    keep = np.ones(len(x), dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def cells(lohi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every cell of every box, box by box in row-major order: the box it
    belongs to ``(T,)`` and its index ``(T, dim)``."""
    shape = np.maximum(lohi[:, 1] - lohi[:, 0] + 1, 0)
    k, rest = _ragged(shape.prod(axis=1))
    idx = np.empty((len(k), lohi.shape[2]), dtype=np.int64)
    for d in range(lohi.shape[2] - 1, -1, -1):
        rest, idx[:, d] = np.divmod(rest, shape[k, d])
    return k, idx + lohi[k, 0]


def box_cells(lohi: np.ndarray, *frames) -> Tuple[np.ndarray, ...]:
    """Every cell of every box, box by box in row-major order: the box it
    belongs to ``(T,)`` and, per frame ``(lo, within)`` — box ``k`` placed
    with its low corner at ``lo[k]`` in an array over ``within[k]`` — the
    cell's row-major position in that array (:func:`cells` and
    :func:`flat_index` at once, without a per-cell box or index)."""
    shape = np.maximum(lohi[:, 1] - lohi[:, 0] + 1, 0)
    k, rest = _ragged(shape.prod(axis=1))
    steps, flats = [], []
    for lo, within in frames:
        step = np.ones_like(lo)
        step[:, :-1] = np.cumprod((within[:, 1] - within[:, 0] + 1)[:, :0:-1],
                                  axis=1)[:, ::-1]
        steps.append(step)
        flats.append(((lo - within[:, 0]) * step).sum(axis=1)[k])
    for d in range(lohi.shape[2] - 1, -1, -1):
        rest, i = np.divmod(rest, shape[k, d])
        for step, flat in zip(steps, flats):
            flat += i * step[k, d]
    return (k, *flats)


def flat_index(idx: np.ndarray, within: np.ndarray) -> np.ndarray:
    """Row-major position of cell ``idx[t]`` in an array over ``within[t]``
    (or over the one box ``within[0]``)."""
    shape = within[:, 1] - within[:, 0] + 1
    flat = idx[:, 0] - within[:, 0, 0]
    for d in range(1, idx.shape[1]):
        flat = flat * shape[:, d] + idx[:, d] - within[:, 0, d]
    return flat


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


def subtract(pieces: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """``pieces`` minus every one of ``boxes``, taken off in their order."""
    for b in boxes[nonempty(meet(pieces[:, None], boxes[None])).any(axis=0)]:
        pieces = diff(pieces, b)[0]
    return pieces


def disjoint(lohi: np.ndarray) -> np.ndarray:
    """The same region as disjoint boxes: each box loses what the boxes
    before it (as already cut up) cover."""
    clash = np.tril(nonempty(meet(lohi[:, None], lohi[None])), -1).any(axis=1)
    out = [lohi[:0]]
    for b, c in zip(lohi, clash):
        out.append(subtract(b[None], np.concatenate(out)) if c else b[None])
    return np.concatenate(out)


def chop(lohi: np.ndarray, max_size: IntVectLike) -> np.ndarray:
    """Every box cut, per direction, into ``ceil(size / max_size)`` near-equal
    parts by halving at ``size // parts`` (the pieces' order is not kept)."""
    most = np.broadcast_to(_vec(max_size), lohi.shape[2:]).tolist()
    for d in range(lohi.shape[2]):
        parts = [_halves(n, most[d])
                 for n in (lohi[:, 1, d] - lohi[:, 0, d] + 1).tolist()]
        lohi = lohi[np.repeat(np.arange(len(lohi)), [len(p) for p in parts])]
        ends = np.array([e for p in parts for e in p], np.intp).reshape(-1, 2)
        lohi[:, 1, d] = lohi[:, 0, d] + ends[:, 1]
        lohi[:, 0, d] += ends[:, 0]
    return lohi


def _halves(n: int, most: int) -> List[Tuple[int, int]]:
    """First and last offset of each part of ``n`` cells, cut as above."""
    if n <= most:
        return [(0, n - 1)]
    cut = n // -(-n // most)
    return _halves(cut, most) + [(cut + a, cut + b)
                                 for a, b in _halves(n - cut, most)]


def by_lo(lohi: np.ndarray) -> np.ndarray:
    """Sorted by low corner, first direction most significant."""
    return lohi[np.lexsort(lohi[:, 0].T[::-1])]


class BoxArray:
    """An immutable ordered collection of boxes at one refinement level."""

    def __init__(self, boxes: Union[Iterable[Box], np.ndarray]) -> None:
        self._boxes: Optional[Tuple[Box, ...]] = None
        if not isinstance(boxes, np.ndarray):
            self._boxes = tuple(boxes)
            if len({b.dim for b in self._boxes}) > 1:
                raise ValueError("all boxes in a BoxArray must share a dimension")
            boxes = lohi_of(self._boxes)
        #: the boxes as one ``(N, 2, dim)`` array
        self.lohi = boxes.astype(np.int64, copy=False)
        self._dim = self.lohi.shape[2] if len(self.lohi) else 0
        if not nonempty(self.lohi).all():
            raise ValueError("empty box in BoxArray")
        self._bins = None

    # -- construction -----------------------------------------------------
    @classmethod
    def from_domain(cls, domain: Box, max_grid_size: IntVectLike,
                    blocking_factor: IntVectLike = 1) -> "BoxArray":
        """Decompose a domain box into chunks of at most ``max_grid_size``.

        Every resulting box has sides divisible by ``blocking_factor``
        (provided the domain itself is); this mirrors the AMReX input-deck
        parameters ``amr.max_grid_size`` and ``amr.blocking_factor``.
        """
        bf, ms = (np.broadcast_to(_vec(n), (domain.dim,))
                  for n in (blocking_factor, max_grid_size))
        for d, n in enumerate(domain.shape()):
            if ms[d] % bf[d] != 0:
                raise ValueError(f"max_grid_size {ms[d]} not divisible by "
                                 f"blocking_factor {bf[d]}")
            if n % bf[d] != 0:
                raise ValueError(f"domain size {n} not divisible by "
                                 f"blocking_factor {bf[d]} in direction {d}")
        # Chop in blocking-factor units so all cuts are aligned.
        return cls(by_lo(refine(chop(coarsen(lohi_of([domain]), bf), ms // bf),
                                bf)))

    # -- protocol --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.lohi)

    def __iter__(self) -> Iterator[Box]:
        return iter(self.boxes())

    def __getitem__(self, i: int) -> Box:
        return self.boxes()[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoxArray):
            return NotImplemented
        return len(self) == len(other) and (
            not len(self) or np.array_equal(self.lohi, other.lohi))

    def __hash__(self) -> int:
        return hash(self.lohi.tobytes())

    def __repr__(self) -> str:
        return f"BoxArray(n={len(self)}, pts={self.num_pts()})"

    @property
    def dim(self) -> int:
        return self._dim

    def boxes(self) -> Tuple[Box, ...]:
        if self._boxes is None:
            self._boxes = tuple(boxes_of(self.lohi))
        return self._boxes

    def num_pts(self) -> int:
        """Total number of cells over all boxes."""
        return int(num_pts(self.lohi).sum())

    # -- transformations -----------------------------------------------------
    def refine(self, ratio: IntVectLike) -> "BoxArray":
        return BoxArray(refine(self.lohi, ratio))

    # -- queries ---------------------------------------------------------------
    def _index(self):
        """The boxes sorted into the bins of a grid over their extent, the
        one index every query searches: bins are no smaller than the
        largest box (a box meets at most 2 per direction) and about as
        many as boxes (a region's bins cost no more than its candidates;
        a handful of boxes is the one-bin case)."""
        if self._bins is None:
            lo, hi = self.lohi[:, 0], self.lohi[:, 1]
            origin = lo.min(axis=0)
            per_side = max(1, round(len(self) ** (1.0 / self._dim)))
            cell = np.maximum((hi - lo + 1).max(axis=0),
                              -(-(hi.max(axis=0) - origin + 1) // per_side))
            grid = np.stack([np.zeros_like(origin),
                             (hi.max(axis=0) - origin) // cell])[None]
            corner = np.indices((2,) * self._dim).reshape(self._dim, -1).T
            bins = np.where(corner[None], ((hi - origin) // cell)[:, None],
                            ((lo - origin) // cell)[:, None])
            key = flat_index(bins.reshape(-1, self._dim), grid)
            member = _distinct(key * len(self)
                               + np.repeat(np.arange(len(self)), len(corner)))
            self._bins = (origin, cell, grid, member // len(self),
                          member % len(self))
        return self._bins

    def _regions(self, regions: Union[Box, np.ndarray]) -> np.ndarray:
        """Query regions as an ``(Q, 2, dim)`` array of this dimension."""
        if isinstance(regions, Box):
            regions = lohi_of([regions])
        if len(self) and regions.shape[2] != self._dim:
            raise ValueError(f"expected dim {self._dim}, got {regions.shape[2]}")
        return regions

    def intersect(self, regions: Union[Box, np.ndarray]
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (region, box) pair that overlaps, sorted by region then
        box: the region's position ``(P,)``, the box's ``(P,)`` and the
        overlap ``(P, 2, dim)``."""
        regions = self._regions(regions)
        if not len(self) or not len(regions):
            none = np.zeros(0, dtype=np.int64)
            return none, none, regions[:0]
        origin, cell, grid, keys, members = self._index()
        # candidates: the members of every bin a region reaches
        reach = np.clip((regions - origin) // cell, grid[:, 0], grid[:, 1])
        q, bins = cells(reach)
        key = flat_index(bins, grid)
        first = np.searchsorted(keys, key, side="left")
        k, nth = _ragged(np.searchsorted(keys, key, side="right") - first)
        q, j = q[k], members[first[k] + nth]
        hit = nonempty(regions)[q]
        for d in range(self._dim):
            hit &= regions[q, 0, d] <= self.lohi[j, 1, d]
            hit &= regions[q, 1, d] >= self.lohi[j, 0, d]
        # a box reached through several bins is one pair
        q, j = np.divmod(_distinct(q[hit] * len(self) + j[hit]), len(self))
        return q, j, meet(regions[q], self.lohi[j])

    def complement(self, regions: Union[Box, np.ndarray]
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """The part of each region no box covers, as disjoint pieces
        ``(P, 2, dim)``, region by region, and the region each belongs to
        ``(P,)``: the boxes a region meets are taken off it in index order
        — each piece by the first it meets after the box that made it."""
        regions = self._regions(regions)
        q, _, cover = self.intersect(regions)
        nth = np.arange(len(q)) - np.searchsorted(q, q)
        bounds = 2 * regions.shape[2]
        # each region's boxes (what it meets of them) in index order as
        # (-hi, lo), padded with empty ones no piece meets: piece p meets b
        # where (-p.lo, p.hi) >= (-b.hi, b.lo)
        reach = np.full((bounds, len(regions), np.bincount(q, minlength=1).max()),
                        np.iinfo(regions.dtype).max)
        reach[:, q, nth] = (cover[:, ::-1] * _SIDE).reshape(-1, bounds).T
        pieces, owner = regions, np.arange(len(regions))
        while True:
            at = np.ascontiguousarray((pieces * _SIDE).reshape(-1, bounds).T)
            hit = (at[:, :, None] >= reach[:, owner]).all(axis=0)
            if not hit.any():
                return pieces, owner
            # a piece meets no box before the one that made it; one that
            # meets none is cut by a box apart from it: kept whole
            cut = reach[:, owner, hit.argmax(axis=1)].T.reshape(
                (-1,) + regions.shape[1:])
            pieces, src = diff(pieces, -(cut[:, ::-1] * _SIDE))
            owner = owner[src]

    def contains(self, region: Box) -> bool:
        """Whether the union of boxes fully covers ``region``."""
        return not len(self.complement(region)[0])

    def centers(self) -> np.ndarray:
        """(n, dim) array of integer box centers (doubled to stay integral)."""
        return self.lohi.sum(axis=1)
