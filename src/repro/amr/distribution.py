"""Assignment of boxes to MPI ranks.

``DistributionMapping`` mirrors ``amrex::DistributionMapping``: given a
:class:`~repro.amr.boxarray.BoxArray` and a rank count, produce the
box -> rank ownership map.  Strategies:

- ``sfc`` (default, as in the paper): order boxes along the Z-Morton
  space-filling curve, then split the ordered sequence into contiguous
  per-rank chunks of nearly equal weight (cell count).
- ``knapsack``: greedy longest-processing-time assignment minimizing the
  maximum per-rank weight, ignoring locality.
- ``roundrobin``: box i -> rank i % nranks.

AMReX load balances each AMR level independently, in sequence; so does
:class:`~repro.amr.amrcore.AmrCore`.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.amr.boxarray import BoxArray, num_pts
from repro.amr.morton import morton_order

STRATEGIES = ("sfc", "knapsack", "roundrobin")


class DistributionMapping:
    """Ownership map from box index to rank."""

    def __init__(self, ranks: Sequence[int], nranks: int) -> None:
        self._ranks = tuple(int(r) for r in ranks)
        self.nranks = int(nranks)
        if any(not 0 <= r < nranks for r in self._ranks):
            raise ValueError("rank out of range in DistributionMapping")

    @classmethod
    def make(
        cls,
        ba: BoxArray,
        nranks: int,
        strategy: str = "sfc",
        weights: Optional[Sequence[float]] = None,
    ) -> "DistributionMapping":
        """Build a distribution for ``ba`` over ``nranks`` ranks."""
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; options: {STRATEGIES}")
        w = (
            num_pts(ba.lohi).astype(np.float64)
            if weights is None
            else np.asarray(weights, dtype=np.float64)
        )
        if len(w) != len(ba):
            raise ValueError("weights length must match BoxArray length")
        if strategy == "roundrobin":
            ranks = [i % nranks for i in range(len(ba))]
        elif strategy == "knapsack":
            ranks = _knapsack(w, nranks)
        else:
            ranks = _sfc(ba, w, nranks)
        return cls(ranks, nranks)

    def __len__(self) -> int:
        return len(self._ranks)

    def __getitem__(self, i: int) -> int:
        return self._ranks[i]

    def __iter__(self):
        return iter(self._ranks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistributionMapping):
            return NotImplemented
        return self._ranks == other._ranks and self.nranks == other.nranks

    def __repr__(self) -> str:
        return f"DistributionMapping(nboxes={len(self)}, nranks={self.nranks})"

    def ranks(self) -> Tuple[int, ...]:
        return self._ranks

    def load_per_rank(self, ba: BoxArray) -> np.ndarray:
        """Total cell count assigned to each rank."""
        return np.bincount(self._ranks, num_pts(ba.lohi),
                           self.nranks).astype(np.int64)


def _sfc(ba: BoxArray, weights: np.ndarray, nranks: int) -> List[int]:
    """Space-filling-curve distribution: Morton-sort, then greedy chunking."""
    if len(ba) == 0:
        return []
    centers = ba.centers()
    centers = centers - centers.min(axis=0)  # shift non-negative for Morton
    order = morton_order(centers)
    total = float(weights.sum())
    target = total / nranks
    ranks = [0] * len(ba)
    rank = 0
    acc = 0.0
    remaining = total
    for pos, idx in enumerate(order):
        ranks[idx] = rank
        acc += float(weights[idx])
        remaining -= float(weights[idx])
        # advance rank when this one has its fair share of what was left,
        # but never strand later boxes without ranks to go around
        boxes_left = len(order) - pos - 1
        if rank < nranks - 1 and acc >= target and boxes_left >= 1:
            rank += 1
            acc = 0.0
            target = remaining / (nranks - rank)
    return ranks


def _knapsack(weights: np.ndarray, nranks: int) -> List[int]:
    """Greedy LPT knapsack: heaviest box to the lightest rank."""
    ranks = [0] * len(weights)
    heap: List[Tuple[float, int]] = [(0.0, r) for r in range(nranks)]
    heapq.heapify(heap)
    for idx in np.argsort(-weights, kind="stable"):
        load, r = heapq.heappop(heap)
        ranks[int(idx)] = r
        heapq.heappush(heap, (load + float(weights[idx]), r))
    return ranks
