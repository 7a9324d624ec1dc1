"""AverageDown: restrict fine-level data onto covered coarse cells.

After the final RK3 stage of a step, CRoCCo sets every coarse cell that is
covered by fine patches to the arithmetic mean of the covering fine cells
(Algorithm 2, line 11), keeping the levels consistent.
"""

from __future__ import annotations

import numpy as np

from repro.amr.boxarray import (box_cells, coarsen, grow, meet, nonempty,
                                num_pts, refine)
from repro.amr.intvect import IntVect, IntVectLike
from repro.amr.multifab import MultiFab
from repro.amr.plan import CommPlan


def _build_plan(fine: MultiFab, crse: MultiFab, r: IntVect) -> CommPlan:
    """The fine regions that fully cover coarse cells: their fine cells
    gathered, their means put (``regions``: shapes and gather columns)."""
    i, j, _ = fine.ba.intersect(refine(crse.ba.lohi, r))
    # the largest coarse box whose refinement lies inside each fine box
    # (low corners rounded up, high corners down), within the coarse fab
    inside = coarsen(grow(fine.ba.lohi[j], 1 - np.array(r.tup())), r)
    covered = meet(inside, crse.ba.lohi[i])
    ok = nonempty(covered)
    i, j, covered = i[ok], j[ok], covered[ok]
    fregion = refine(covered, r)
    plan = CommPlan.of_boxes(crse, fine, "averagedown", "averagedown",
                             crse.ncomp, (i, j, fregion, covered),
                             compile=False)
    k, flat = box_cells(fregion, (fregion[:, 0], fine.grown[j]))
    plan.src = fine.cells(j[k], flat)
    k, flat = box_cells(covered, (covered[:, 0], crse.grown[i]))
    plan.dst = crse.cells(i[k], flat)
    shapes = (fregion[:, 1] - fregion[:, 0] + 1).tolist()
    ends = np.cumsum([0, *num_pts(fregion)]).tolist()
    plan.regions = [((fine.ncomp, *s), a, b)
                    for s, a, b in zip(shapes, ends, ends[1:])]
    return plan


def average_down(fine: MultiFab, crse: MultiFab, ratio: IntVectLike) -> None:
    """Overwrite coarse cells covered by ``fine`` with fine-cell averages.

    Data motion between differently-owned patches is recorded as
    ``averagedown`` traffic in the communicator's ledger; the restriction
    runs as one ``AverageDown`` launch per owning rank of coarse fabs,
    charged with the fine points its fabs read.
    """
    if fine.ncomp != crse.ncomp:
        raise ValueError("AverageDown component mismatch")
    r = IntVect.coerce(ratio, fine.dim)
    plan = crse.plan(("averagedown", r.tup(), fine.ngrow.tup()),
                     (fine.ba, fine.dm), lambda: _build_plan(fine, crse, r))

    def restrict() -> None:
        # block means on an array of the region's own shape: NumPy's
        # summation order, and so the bits, follow the reduced shape
        vals = plan.src.take(fine.buffer)
        plan.dst.put(crse.buffer, np.concatenate(
            [_block_mean(vals[:, a:b].reshape(s), r).reshape(s[0], -1)
             for s, a, b in plan.regions], axis=1))

    plan.run("AverageDown", restrict)


def _block_mean(fine: np.ndarray, r: IntVect) -> np.ndarray:
    """Mean over r-sized blocks of a (ncomp, n1*r1[, n2*r2[, n3*r3]]) array."""
    shape = [fine.shape[0]]
    for n, rd in zip(fine.shape[1:], r):
        shape += [n // rd, rd]
    # average over the interleaved ratio axes (2, 4, 6 ... after reshape)
    return fine.reshape(shape).mean(axis=tuple(range(2, len(shape), 2)))
