"""AverageDown: restrict fine-level data onto covered coarse cells.

After the final RK3 stage of a step, CRoCCo sets every coarse cell that is
covered by fine patches to the arithmetic mean of the covering fine cells
(Algorithm 2, line 11), keeping the levels consistent.
"""

from __future__ import annotations

import numpy as np

from repro.amr.boxarray import coarsen, grow, meet, nonempty, refine
from repro.amr.intvect import IntVect, IntVectLike
from repro.amr.multifab import MultiFab
from repro.amr.plan import CommPlan, copy


def _build_plan(fine: MultiFab, crse: MultiFab, r: IntVect) -> CommPlan:
    """Per coarse fab, the fine regions that fully cover coarse cells."""
    i, j, _ = fine.ba.intersect(refine(crse.ba.lohi, r))
    # the largest coarse box whose refinement lies inside each fine box
    # (low corners rounded up, high corners down), within the coarse fab
    inside = coarsen(grow(fine.ba.lohi[j], 1 - np.array(r.tup())), r)
    covered = meet(inside, crse.ba.lohi[i])
    ok = nonempty(covered)
    i, j, covered = i[ok], j[ok], covered[ok]
    return CommPlan.of_boxes(crse, fine, "averagedown", crse.ncomp,
                             (i, j, refine(covered, r), covered))


def average_down(fine: MultiFab, crse: MultiFab, ratio: IntVectLike) -> None:
    """Overwrite coarse cells covered by ``fine`` with fine-cell averages.

    Data motion between differently-owned patches is recorded as
    ``averagedown`` traffic in the communicator's ledger; each coarse fab's
    restriction runs as one ``AverageDown`` launch charged with the fine
    points it reads.
    """
    if fine.ncomp != crse.ncomp:
        raise ValueError("AverageDown component mismatch")
    r = IntVect.coerce(ratio, fine.dim)
    plan = crse.plan(("averagedown", r.tup(), fine.ngrow.tup()),
                     (fine.ba, fine.dm), lambda: _build_plan(fine, crse, r))
    plan.run("AverageDown", "averagedown",
             lambda fp: copy(crse.fab(fp.dst).data, fine, fp.copies,
                             via=lambda v: _block_mean(v, r)))


def _block_mean(fview: np.ndarray, r: IntVect) -> np.ndarray:
    """Mean over r-sized blocks of a (ncomp, n1*r1[, n2*r2[, n3*r3]]) array."""
    ncomp = fview.shape[0]
    dim = len(r)
    new_shape = [ncomp]
    for d in range(dim):
        n = fview.shape[d + 1]
        if n % r[d] != 0:
            raise ValueError("fine view not aligned to refinement ratio")
        new_shape.extend([n // r[d], r[d]])
    resh = fview.reshape(new_shape)
    # average over the interleaved ratio axes (2, 4, 6 ... after reshape)
    axes = tuple(2 + 2 * d for d in range(dim))
    return resh.mean(axis=axes)
