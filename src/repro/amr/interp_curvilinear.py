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

from repro.amr.intvect import IntVect
from repro.amr.interpolate import Interpolator, _fine_fractions, corner_indices


class CurvilinearInterp(Interpolator):
    """Multilinear interpolation with physical-space weights."""

    radius = 1
    needs_coords = True
    kernel_label = "curvilinear"

    def stencil(self, fine_region, ratio, cbox, crse_coords=None, fine_coords=None):
        if crse_coords is None or fine_coords is None:
            raise ValueError("CurvilinearInterp requires coarse and fine coordinates")
        ratio = IntVect.coerce(ratio, fine_region.dim)
        dim = fine_region.dim
        ncorner = 1 << dim
        bases = [_fine_fractions(fine_region, ratio, d)[0] for d in range(dim)]

        # physical coordinates of the 2^dim surrounding coarse points
        cdata = crse_coords.data.reshape(crse_coords.ncomp, -1)
        cgb = crse_coords.grown_box()
        ccorners = [cdata[:, ic] for ic in corner_indices(bases, cgb)]
        xf = fine_coords.view(fine_region).reshape(fine_coords.ncomp, -1)

        # per-axis weights: projection of (xf - x0) on the axis edge vector
        t = []
        x0 = ccorners[0]
        for d in range(dim):
            edge = ccorners[1 << d] - x0  # coarse edge along computational axis d
            denom = np.sum(edge * edge, axis=0)
            denom = np.where(denom > 0.0, denom, 1.0)
            td = np.sum((xf - x0) * edge, axis=0) / denom
            t.append(np.clip(td, 0.0, 1.0))

        weights = []
        for corner in range(ncorner):
            w = np.ones(xf.shape[1], dtype=np.float64)
            for d in range(dim):
                w = w * (t[d] if (corner >> d) & 1 else (1.0 - t[d]))
            weights.append(w)
        return corner_indices(bases, cbox), np.array(weights)
