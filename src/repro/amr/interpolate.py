"""Coarse-to-fine spatial interpolators.

The paper contrasts three interpolation schemes at coarse/fine AMR
interfaces:

- AMReX's built-in **trilinear** interpolator (uniform index-space weights;
  used by CRoCCo 2.1),
- the custom **curvilinear** interpolator that weighs coefficients by
  physical grid spacing (CRoCCo 1.2/2.0; see
  :mod:`repro.amr.interp_curvilinear`),
- a high-order **WENO-SYMBO** interpolator under development (see
  :mod:`repro.amr.interp_weno`).

All interpolators implement :class:`Interpolator`: given a coarse fab
covering the needed coarse region, produce fine values on a fine-index
region.  The linear ones give their stencil for a whole level's pieces
in one array pass: what a FillPatch plan stores.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import cells, lohi_of
from repro.amr.fab import FArrayBox
from repro.amr.intvect import IntVect, IntVectLike


class Interpolator:
    """Base class for coarse-to-fine interpolation."""

    #: number of coarse ghost cells needed around the coarsened fine region
    radius: int = 1

    #: whether the interpolator needs physical coordinates (curvilinear)
    needs_coords: bool = False

    #: suffix of the ``Interp_<label>`` launch name in device accounting
    kernel_label: str = "generic"

    def stencil(self, k: np.ndarray, at: np.ndarray, ratio: IntVect,
                cregions: np.ndarray, coords: Optional[tuple] = None):
        """``(idx, w)`` for the fine cells of many pieces at once when every
        fine value is a fixed weighted sum of coarse cells, else None (the
        weights depend on the coarse values).

        Fine cell ``t`` (``cells(pieces)``) belongs to piece ``k[t]``, has
        index ``at[t]`` and takes its coarse values from an array over
        ``cregions[k[t]]``: ``idx[c, t]`` is the flat index into it of its
        ``c``-th coarse neighbour, ``w[c, t]`` that neighbour's weight (``w``
        None: a plain copy of neighbour 0).  Curvilinear weights read
        ``coords = (crse, boxes, start, fine)``: coarse coordinates
        ``(ncomp, C)`` over box ``boxes[n]`` from ``start[n]`` for piece
        ``n``, and every fine cell's own ``(ncomp, T)``.  Both depend only
        on layout and coordinates: a FillPatch plan computes them once per
        regrid, for all of a level's pieces.
        """
        return None

    def interp(
        self,
        cfab: FArrayBox,
        fine_region: Box,
        ratio: IntVectLike,
        crse_coords: Optional[FArrayBox] = None,
        fine_coords: Optional[FArrayBox] = None,
    ) -> np.ndarray:
        """Return (ncomp, *fine_region.shape()) interpolated values: the
        one-piece case of :meth:`stencil`."""
        k, at = cells(lohi_of([fine_region]))
        coords = None
        if crse_coords is not None and fine_coords is not None:
            coords = (crse_coords.data.reshape(crse_coords.ncomp, -1),
                      lohi_of([crse_coords.grown_box()]), np.zeros(1, np.int64),
                      fine_coords.view(fine_region).reshape(fine_coords.ncomp, -1))
        stencil = self.stencil(k, at, IntVect.coerce(ratio, fine_region.dim),
                               lohi_of([cfab.grown_box()]), coords)
        if stencil is None:
            raise NotImplementedError
        return apply_stencil(cfab.data.reshape(cfab.ncomp, -1),
                             *stencil).reshape((-1,) + fine_region.shape())


def apply_stencil(coarse: np.ndarray, idx: np.ndarray,
                  w: Optional[np.ndarray]) -> np.ndarray:
    """Fine values ``(ncomp, nfine)`` from ``coarse`` ``(ncomp, ncells)``:
    the weighted neighbours accumulated in neighbour order."""
    if w is None:
        return coarse[:, idx[0]]
    out = np.zeros((coarse.shape[0], idx.shape[1]), dtype=np.float64)
    for ic, wc in zip(idx, w):
        out += coarse[:, ic] * wc
    return out


def corner_indices(k: np.ndarray, bases: np.ndarray,
                   boxes: np.ndarray) -> np.ndarray:
    """Flat indices into arrays over ``boxes[k[t]]`` of every fine cell's
    coarse neighbours, ``(2^dim, T)``: corner ``c`` is, along each axis
    ``d``, the lower neighbour ``bases[t, d]`` or (bit ``d`` of ``c`` set)
    the upper one."""
    size = (boxes[:, 1] - boxes[:, 0] + 1)[k]
    ib = bases - boxes[k, 0]
    if (ib < 0).any() or (ib + 1 >= size).any():
        raise ValueError("coarse fab does not cover interpolation stencil")
    # per cell, the row-major step of each axis
    step = np.ones_like(size)
    for d in range(size.shape[1] - 1, 0, -1):
        step[:, d - 1] = step[:, d] * size[:, d]
    out = np.empty((1 << size.shape[1], len(k)), np.int64)
    out[0] = (ib * step).sum(axis=1)
    for c in range(1, len(out)):
        # one step further along the highest axis of the corner's bits
        d = c.bit_length() - 1
        out[c] = out[c - (1 << d)] + step[:, d]
    return out


def _fine_fractions(i_f: np.ndarray, r: int):
    """Base coarse index and fractional offset of fine cell centers.

    A fine cell ``i_f`` has its center at coarse coordinate
    ``(i_f + 0.5) / r - 0.5`` in units of coarse cells.  Returns
    ``(ibase, frac)`` with ``ibase`` the lower coarse neighbor index and
    ``frac`` in [0, 1) the linear weight toward the upper neighbor.
    """
    center = (i_f + 0.5) / r - 0.5
    ibase = np.floor(center).astype(np.int64)
    frac = center - ibase
    return ibase, frac


class TrilinearInterp(Interpolator):
    """AMReX-style multilinear interpolation with index-space weights.

    On a uniform grid the interpolation coefficients depend only on the
    refinement ratio (for nodal data they are multiples of 1/2; for
    ratio-2 cell-centered data they are 1/4 and 3/4), which is exactly the
    assumption the curvilinear interpolator must relax.
    No global communication is required — this is the CRoCCo 2.1 choice.
    """

    radius = 1
    kernel_label = "trilinear"

    def stencil(self, k, at, ratio, cregions, coords=None):
        bases, fracs = _fine_fractions(at, np.array(ratio.tup()))
        # the 2^dim corners' separable linear weights, corner bit ``d``
        # choosing ``frac`` over ``1 - frac`` along axis ``d``
        w = np.ones((1 << at.shape[1], len(k)))
        for c, wc in enumerate(w):
            for d in range(at.shape[1]):
                wc *= fracs[:, d] if (c >> d) & 1 else 1.0 - fracs[:, d]
        return corner_indices(k, bases, cregions), w


class ConservativeLinearInterp(Interpolator):
    """Cell-conservative linear interpolation with van Leer slope limiting.

    Matches ``amrex::cell_cons_interp``: fits limited slopes in each coarse
    cell and evaluates them at fine cell centers, preserving the coarse
    cell mean exactly (the conservation property the paper notes its custom
    curvilinear interpolator lacks).
    """

    radius = 1
    kernel_label = "conslinear"

    def interp(self, cfab, fine_region, ratio, crse_coords=None, fine_coords=None):
        ratio = IntVect.coerce(ratio, fine_region.dim)
        dim = fine_region.dim
        gb = cfab.grown_box()
        crse = cfab.data
        # coarse region covering the fine region (no ghost growth)
        cregion = fine_region.coarsen(ratio)
        csl = tuple(
            slice(cregion.lo[d] - gb.lo[d], cregion.hi[d] - gb.lo[d] + 1)
            for d in range(dim)
        )
        out = None
        center = crse[(slice(None),) + csl]
        # start from piecewise-constant and add limited slope corrections
        reps = tuple(ratio[d] for d in range(dim))
        out = _tile(center, reps, fine_region, cregion, ratio)
        for d in range(dim):
            lo_sl = list(csl)
            hi_sl = list(csl)
            lo_sl[d] = slice(csl[d].start - 1, csl[d].stop - 1)
            hi_sl[d] = slice(csl[d].start + 1, csl[d].stop + 1)
            left = crse[(slice(None),) + tuple(lo_sl)]
            right = crse[(slice(None),) + tuple(hi_sl)]
            df = right - center
            db = center - left
            # van Leer limiter (monotonized central)
            slope = np.where(
                df * db > 0.0,
                np.sign(df) * np.minimum(
                    0.5 * np.abs(df + db), 2.0 * np.minimum(np.abs(df), np.abs(db))
                ),
                0.0,
            )
            slope_f = _tile(slope, reps, fine_region, cregion, ratio)
            # offset of each fine center from its coarse center, in coarse cells
            i_f = np.arange(fine_region.lo[d], fine_region.hi[d] + 1)
            off = (i_f + 0.5) / ratio[d] - (np.floor_divide(i_f, ratio[d]) + 0.5)
            shape = [1] * (dim + 1)
            shape[d + 1] = -1
            out += slope_f * off.reshape(shape)
        return out


def _tile(carr: np.ndarray, reps, fine_region: Box, cregion: Box, ratio: IntVect):
    """Expand a coarse array to fine resolution by repetition, then crop.

    ``carr`` covers ``cregion``; the result covers ``fine_region``.
    """
    fine_full = np.asarray(carr)
    for d in range(fine_region.dim):
        fine_full = np.repeat(fine_full, reps[d], axis=d + 1)
    # fine_full covers cregion.refine(ratio); crop to fine_region
    full_box = cregion.refine(ratio)
    sl = fine_region.slices(relative_to=full_box)
    return fine_full[(slice(None),) + sl].copy()
