"""Fortran-array-box: the per-patch data block.

``FArrayBox`` mirrors ``amrex::FArrayBox``: a dense ``(ncomp, nx[, ny[, nz]])``
float64 array covering a valid box plus ``ngrow`` ghost cells on every side.
Views into sub-boxes are returned as NumPy views (no copies), following the
"use views, not copies" idiom for HPC Python.  A fab given its ``data``
(a MultiFab's fabs are views into the level's group arrays) holds that very
array: it is aliased, never copied, so a write through the fab is a write
into the level.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.amr.box import Box
from repro.amr.intvect import IntVect, IntVectLike


class FArrayBox:
    """Patch data: ncomp components over ``box.grow(ngrow)``."""

    __slots__ = ("box", "ngrow", "ncomp", "data", "_gbox", "_valid")

    def __init__(self, box: Box, ncomp: int = 1, ngrow: IntVectLike = 0,
                 data: Optional[np.ndarray] = None) -> None:
        if ncomp < 1:
            raise ValueError("ncomp must be >= 1")
        self.box = box
        self.ngrow = IntVect.coerce(ngrow, box.dim)
        grow = self.ngrow.tup()
        if min(grow) < 0:
            raise ValueError("ngrow must be non-negative")
        size = [h - l + 1 for l, h in zip(box.lo.tup(), box.hi.tup())]
        if min(size) < 1:
            raise ValueError(f"cannot allocate FArrayBox on empty box {box}")
        self.ncomp = ncomp
        # box and ngrow never change: the valid region's slices are computed
        # here, once, and the grown box when first asked for
        self._gbox: Optional[Box] = None
        self._valid = tuple([slice(g, -g or None) for g in grow])
        shape = (ncomp, *[n + 2 * g for n, g in zip(size, grow)])
        if data is None:
            self.data = np.zeros(shape, dtype=np.float64)
        else:
            if data.shape != shape or data.dtype != np.float64:
                raise ValueError(f"data {data.dtype} {data.shape} != expected "
                                 f"float64 {shape}")
            self.data = data

    def grown_box(self) -> Box:
        """The box including ghost cells — the region the array covers."""
        if self._gbox is None:
            self._gbox = self.box.grow(self.ngrow)
        return self._gbox

    # -- views -----------------------------------------------------------
    def view(self, region: Optional[Box] = None, comp: Optional[slice] = None) -> np.ndarray:
        """NumPy view of ``region`` (default: the valid box) for components ``comp``.

        ``region`` must lie within the grown box.
        """
        c = comp if comp is not None else slice(None)
        if region is None or region is self.box:
            return self.data[(c,) + self._valid]
        if not self.grown_box().contains(region):
            raise ValueError(
                f"region {region} not contained in grown box {self._gbox}")
        return self.data[(c,) + region.slices(relative_to=self._gbox)]

    def valid(self, comp: Optional[slice] = None) -> np.ndarray:
        """View of the valid (non-ghost) region."""
        return self.data[(comp if comp is not None else slice(None),)
                         + self._valid]

    def whole(self) -> np.ndarray:
        """The full array including ghosts."""
        return self.data

    def __repr__(self) -> str:
        return f"FArrayBox(box={self.box}, ncomp={self.ncomp}, ngrow={self.ngrow})"
