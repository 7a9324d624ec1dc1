"""Custom curvilinear interpolator (the CRoCCo 1.2/2.0 scheme).

AMReX's built-in interpolators assume index-space weights, i.e. that fine
points sit at fixed fractions between coarse points.  On a generalized
curvilinear grid that is false: physical spacing varies, so this
interpolator weighs the multilinear coefficients by *physical* distance,
using the stored coordinates MultiFab.

The price is data movement: the coordinates of the coarse stencil points
(beyond patch edges) must be gathered with a global ``ParallelCopy`` every
FillPatch — the communication bottleneck the paper quantifies by comparing
CRoCCo 2.0 against 2.1.  The interpolation is exact for linear fields and
reduces to :class:`~repro.amr.interpolate.TrilinearInterp` on uniform
grids, but (as the paper notes) is not conservative across interfaces.
"""

from __future__ import annotations

import numpy as np

from repro.amr.interpolate import Interpolator, _fine_fractions, corner_indices


class CurvilinearInterp(Interpolator):
    """Multilinear interpolation with physical-space weights."""

    radius = 1
    needs_coords = True
    kernel_label = "curvilinear"

    def stencil(self, k, at, ratio, cregions, coords=None):
        if coords is None:
            raise ValueError("CurvilinearInterp requires coarse and fine coordinates")
        bases = _fine_fractions(at, np.array(ratio.tup()))[0]
        t = _edge_fractions(corner_indices(k, bases, coords[1]), k, coords)
        w = np.ones((1 << len(t), len(k)))
        for c, wc in enumerate(w):
            for d, td in enumerate(t):
                wc *= td if (c >> d) & 1 else 1.0 - td
        return corner_indices(k, bases, cregions), w


def _edge_fractions(corner, k, coords):
    """Per axis, every fine cell's position between its lower coarse
    neighbour ``x0`` and the next one along that axis: the projection of
    ``xf - x0`` on the coarse edge, clipped to [0, 1]."""
    crse, boxes, start, xf = coords
    corner += start[k]
    x0 = crse[:, corner[0]]
    t = []
    for d in range(boxes.shape[2]):
        edge = crse[:, corner[1 << d]] - x0  # coarse edge along axis d
        denom = np.sum(edge * edge, axis=0)
        denom = np.where(denom > 0.0, denom, 1.0)
        td = np.sum((xf - x0) * edge, axis=0) / denom
        t.append(np.clip(td, 0.0, 1.0))
    return t
