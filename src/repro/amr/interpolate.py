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
region.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.amr.box import Box
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

    def stencil(self, fine_region: Box, ratio: IntVectLike, cbox: Box,
                crse_coords: Optional[FArrayBox] = None,
                fine_coords: Optional[FArrayBox] = None):
        """``(idx, w)`` when every fine value is a fixed weighted sum of
        coarse cells, else None (the weights depend on the coarse values).

        ``idx[c]`` is, per fine cell of ``fine_region`` (flattened), the
        flat index into an array over ``cbox`` of its ``c``-th coarse
        neighbour and ``w[c]`` that neighbour's weight (``w`` None: a plain
        copy of neighbour 0).  Both depend only on the layout and the
        coordinates, so a FillPatch plan computes them once per regrid.
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
        """Return (ncomp, *fine_region.shape()) interpolated values."""
        stencil = self.stencil(fine_region, ratio, cfab.grown_box(),
                               crse_coords, fine_coords)
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


def corner_indices(bases, box: Box, upper: bool = True) -> np.ndarray:
    """Flat indices into an array over ``box`` of every fine cell's coarse
    neighbours, ``(2^dim, nfine)``: corner ``c`` is, along each axis ``d``,
    the lower neighbour ``bases[d]`` or (bit ``d`` of ``c`` set) the upper
    one.  Without ``upper``, only corner 0."""
    shape, first, steps = box.shape(), 0, []
    for d, ib in enumerate(bases):
        ib = ib - box.lo[d]
        if ib.min() < 0 or ib.max() + upper >= shape[d]:
            raise ValueError("coarse fab does not cover interpolation stencil")
        step = math.prod(shape[d + 1:])
        first = first + (ib * step).reshape((-1,) + (1,) * (len(bases) - 1 - d))
        steps.append(step)
    ncorner = 1 << len(bases) if upper else 1
    to_corner = [sum(s for d, s in enumerate(steps) if (c >> d) & 1)
                 for c in range(ncorner)]
    return first.ravel() + np.array(to_corner)[:, None]


def _fine_fractions(fine_region: Box, ratio: IntVect, idim: int):
    """Per-axis base coarse index and fractional offset of fine cell centers.

    A fine cell ``i_f`` has its center at coarse coordinate
    ``(i_f + 0.5) / r - 0.5`` in units of coarse cells.  Returns
    ``(ibase, frac)`` with ``ibase`` the lower coarse neighbor index and
    ``frac`` in [0, 1) the linear weight toward the upper neighbor.
    """
    r = ratio[idim]
    i_f = np.arange(fine_region.lo[idim], fine_region.hi[idim] + 1)
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

    def stencil(self, fine_region, ratio, cbox, crse_coords=None, fine_coords=None):
        ratio = IntVect.coerce(ratio, fine_region.dim)
        dim = fine_region.dim
        bases, fracs = zip(*(_fine_fractions(fine_region, ratio, d)
                             for d in range(dim)))
        # the 2^dim corners' separable linear weights, corner bit ``d``
        # choosing ``frac`` over ``1 - frac`` along axis ``d``
        w = 1.0
        for d in range(dim):
            both = np.stack([1.0 - fracs[d], fracs[d]])
            w = w * both.reshape((1,) * (dim - 1 - d) + (2,) + (1,) * (2 * d)
                                 + (-1,) + (1,) * (dim - 1 - d))
        return corner_indices(bases, cbox), w.reshape(1 << dim, -1)


class PiecewiseConstantInterp(Interpolator):
    """Injection: every fine cell takes its covering coarse cell's value."""

    radius = 0
    kernel_label = "pconst"

    def stencil(self, fine_region, ratio, cbox, crse_coords=None, fine_coords=None):
        ratio = IntVect.coerce(ratio, fine_region.dim)
        cells = [np.floor_divide(
            np.arange(fine_region.lo[d], fine_region.hi[d] + 1), ratio[d])
            for d in range(fine_region.dim)]
        return corner_indices(cells, cbox, upper=False), None


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
