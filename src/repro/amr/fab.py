"""Fortran-array-box: the per-patch data block.

``FArrayBox`` mirrors ``amrex::FArrayBox``: a dense ``(ncomp, nx[, ny[, nz]])``
float64 array covering a valid box plus ``ngrow`` ghost cells on every side.
Views into sub-boxes are returned as NumPy views (no copies), following the
"use views, not copies" idiom for HPC Python.
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
        if box.is_empty():
            raise ValueError(f"cannot allocate FArrayBox on empty box {box}")
        if ncomp < 1:
            raise ValueError("ncomp must be >= 1")
        self.box = box
        self.ngrow = IntVect.coerce(ngrow, box.dim)
        if self.ngrow.min() < 0:
            raise ValueError("ngrow must be non-negative")
        self.ncomp = ncomp
        # box and ngrow never change: the grown box and the valid region's
        # slices inside it are computed here, once
        self._gbox = box.grow(self.ngrow)
        self._valid = box.slices(relative_to=self._gbox)
        shape = (ncomp,) + self._gbox.shape()
        if data is None:
            self.data = np.zeros(shape, dtype=np.float64)
        else:
            if data.shape != shape:
                raise ValueError(f"data shape {data.shape} != expected {shape}")
            self.data = np.ascontiguousarray(data, dtype=np.float64)

    def grown_box(self) -> Box:
        """The box including ghost cells — the region the array covers."""
        return self._gbox

    @property
    def dim(self) -> int:
        return self.box.dim

    def nbytes(self) -> int:
        return self.data.nbytes

    # -- views -----------------------------------------------------------
    def view(self, region: Optional[Box] = None, comp: Optional[slice] = None) -> np.ndarray:
        """NumPy view of ``region`` (default: the valid box) for components ``comp``.

        ``region`` must lie within the grown box.
        """
        c = comp if comp is not None else slice(None)
        if region is None or region is self.box:
            return self.data[(c,) + self._valid]
        if not self._gbox.contains(region):
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

    # -- mutation -----------------------------------------------------------
    def set_val(self, value: float, region: Optional[Box] = None,
                comp: Optional[int] = None) -> None:
        """Fill a region (default: everything including ghosts) with ``value``."""
        if region is None and comp is None:
            self.data.fill(value)
            return
        r = region if region is not None else self.grown_box()
        c = slice(comp, comp + 1) if comp is not None else slice(None)
        self.view(r, c)[...] = value

    def copy_from(self, other: "FArrayBox", region: Box,
                  src_comp: int = 0, dst_comp: int = 0, ncomp: Optional[int] = None) -> int:
        """Copy ``region`` from another fab; returns bytes copied."""
        nc = ncomp if ncomp is not None else min(self.ncomp - dst_comp,
                                                 other.ncomp - src_comp)
        src = other.view(region, slice(src_comp, src_comp + nc))
        dst = self.view(region, slice(dst_comp, dst_comp + nc))
        dst[...] = src
        return src.nbytes

    def contains_nan(self) -> bool:
        return bool(np.isnan(self.data).any())

    def __repr__(self) -> str:
        return f"FArrayBox(box={self.box}, ncomp={self.ncomp}, ngrow={self.ngrow})"
