"""Rectangular index boxes.

``Box`` is a closed integer interval ``[lo, hi]`` in index space — the
fundamental unit of a block-structured AMR decomposition, mirroring
``amrex::Box`` (cell-centered only; nodal index types are handled by the
interpolators that need them).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.amr.intvect import IntVect, IntVectLike


class Box:
    """A closed rectangular region of index space ``[lo, hi]`` (inclusive).

    A box with any component of ``hi`` strictly below the corresponding
    component of ``lo`` is *empty*.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: IntVectLike, hi: IntVectLike) -> None:
        if isinstance(lo, IntVect):
            dim = lo.dim
        elif isinstance(hi, IntVect):
            dim = hi.dim
        else:
            dim = len(tuple(lo))
        self.lo = IntVect.coerce(lo, dim)
        self.hi = IntVect.coerce(hi, dim)

    @classmethod
    def from_extent(cls, lo: IntVectLike, size: IntVectLike) -> "Box":
        """Build a box from a low corner and a size (number of cells)."""
        lo_iv = lo if isinstance(lo, IntVect) else IntVect(*lo) if not isinstance(lo, int) else IntVect(lo)
        size_iv = IntVect.coerce(size, lo_iv.dim)
        return cls(lo_iv, lo_iv + size_iv - IntVect.unit(lo_iv.dim))

    # -- basic properties ----------------------------------------------------
    @property
    def dim(self) -> int:
        return self.lo.dim

    def size(self) -> IntVect:
        """Number of cells in each direction (may be <= 0 if empty)."""
        return self.hi - self.lo + IntVect.unit(self.dim)

    def num_pts(self) -> int:
        """Total number of cells; 0 if the box is empty."""
        return math.prod(self.shape())

    def is_empty(self) -> bool:
        return any(h < l for l, h in zip(self.lo, self.hi))

    def shape(self) -> Tuple[int, ...]:
        """NumPy-style shape tuple for an array covering this box."""
        return tuple(max(0, h - l + 1) for l, h in zip(self.lo, self.hi))

    def contains(self, other: "Box | IntVect") -> bool:
        """Whether ``other`` (a Box or an index) lies entirely inside this box."""
        if isinstance(other, IntVect):
            return self.lo.allLE(other) and other.allLE(self.hi)
        if other.is_empty():
            return True
        return self.lo.allLE(other.lo) and other.hi.allLE(self.hi)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Box({self.lo.tup()}, {self.hi.tup()})"

    # -- transformations -------------------------------------------------
    def grow(self, n: IntVectLike) -> "Box":
        """Grow (or shrink, for negative n) the box by n cells on every face."""
        g = IntVect.coerce(n, self.dim)
        return Box(self.lo - g, self.hi + g)

    def shift(self, offset: IntVectLike) -> "Box":
        """Translate the box by an integer offset."""
        o = IntVect.coerce(offset, self.dim)
        return Box(self.lo + o, self.hi + o)

    def coarsen(self, ratio: IntVectLike) -> "Box":
        """Coarsen by a refinement ratio (covers at least the original region)."""
        r = IntVect.coerce(ratio, self.dim)
        lo = self.lo.coarsen(r)
        # high end: index of the coarse cell containing hi
        hi = self.hi.coarsen(r)
        return Box(lo, hi)

    def refine(self, ratio: IntVectLike) -> "Box":
        """Refine by a refinement ratio; exact inverse of coarsen for aligned boxes."""
        r = IntVect.coerce(ratio, self.dim)
        lo = self.lo * r
        hi = (self.hi + IntVect.unit(self.dim)) * r - IntVect.unit(self.dim)
        return Box(lo, hi)

    def intersect(self, other: "Box") -> "Box":
        """The (possibly empty) intersection with another box."""
        return Box(self.lo.max_with(other.lo), self.hi.min_with(other.hi))

    def intersects(self, other: "Box") -> bool:
        return not self.intersect(other).is_empty()

    # -- decomposition helpers ---------------------------------------------
    def chop(self, idim: int, at: int) -> Tuple["Box", "Box"]:
        """Split into two boxes at index ``at`` along ``idim``.

        The low box covers ``[lo, at-1]`` and the high box ``[at, hi]``.
        """
        if not (self.lo[idim] < at <= self.hi[idim]):
            raise ValueError(f"chop point {at} outside ({self.lo[idim]}, {self.hi[idim]}]")
        lo_hi = list(self.hi)
        lo_hi[idim] = at - 1
        hi_lo = list(self.lo)
        hi_lo[idim] = at
        return Box(self.lo, IntVect(*lo_hi)), Box(IntVect(*hi_lo), self.hi)

    def slices(self, relative_to: Optional["Box"] = None) -> Tuple[slice, ...]:
        """NumPy slices selecting this box inside an array that covers ``relative_to``.

        ``relative_to`` defaults to ``self`` (slices covering the whole array).
        """
        base = relative_to if relative_to is not None else self
        return tuple(
            slice(l - bl, h - bl + 1) for l, h, bl in zip(self.lo, self.hi, base.lo)
        )
