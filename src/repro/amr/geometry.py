"""Problem-domain geometry: index domain, physical extent, periodicity.

Mirrors ``amrex::Geometry``.  For curvilinear runs the physical coordinates
live in a coordinates MultiFab (see ``repro.numerics.metrics``); this class
always describes the rectangular *computational* domain that the physical
domain is mapped onto.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import coarsen, lohi_of
from repro.amr.intvect import IntVectLike


class Geometry:
    """Computational-domain geometry at a single refinement level."""

    def __init__(
        self,
        domain: Box,
        prob_lo: Sequence[float],
        prob_hi: Sequence[float],
        periodic: Sequence[bool] | None = None,
    ) -> None:
        self.domain = domain
        self.prob_lo = tuple(float(x) for x in prob_lo)
        self.prob_hi = tuple(float(x) for x in prob_hi)
        if len(self.prob_lo) != domain.dim or len(self.prob_hi) != domain.dim:
            raise ValueError("prob_lo/prob_hi dimension mismatch with domain")
        if any(h <= l for l, h in zip(self.prob_lo, self.prob_hi)):
            raise ValueError("prob_hi must exceed prob_lo in every direction")
        self.periodic = tuple(bool(p) for p in (periodic or [False] * domain.dim))
        if len(self.periodic) != domain.dim:
            raise ValueError("periodic flags dimension mismatch")

    @property
    def dim(self) -> int:
        return self.domain.dim

    def refine(self, ratio: IntVectLike) -> "Geometry":
        """Geometry of the next finer level (same physical extent)."""
        return Geometry(
            self.domain.refine(ratio), self.prob_lo, self.prob_hi, self.periodic
        )

    def periodic_shifts(self, ratio: IntVectLike = 1) -> np.ndarray:
        """The integer shifts to the domain's images across periodic faces,
        ``(S, dim)``, the zero shift excluded — where FillBoundary finds
        periodic neighbor patches; with ``ratio``, those of the domain
        coarsened by it."""
        n = np.diff(coarsen(lohi_of([self.domain]), ratio)[0], axis=0)[0] + 1
        offs = np.zeros((1, self.dim), dtype=np.int64)
        for d in np.nonzero(self.periodic)[0]:
            # every shift so far, once to each side along d
            step = np.eye(self.dim, dtype=np.int64)[d] * n[d]
            offs = np.concatenate([offs, (offs[:, None] + [[-1], [1]] * step
                                          ).reshape(-1, self.dim)])
        return offs[1:]

    def __repr__(self) -> str:
        return (
            f"Geometry(domain={self.domain}, prob_lo={self.prob_lo}, "
            f"prob_hi={self.prob_hi}, periodic={self.periodic})"
        )
