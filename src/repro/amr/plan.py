"""Communication plans: copy metadata built once per layout, run per fab.

AMReX builds the metadata of FillBoundary and ParallelCopy once per
(BoxArray, DistributionMapping, ghost width) and reuses it until the next
regrid.  A :class:`CommPlan` is that metadata for one operation writing
one MultiFab — per destination fab the copies to perform, the point count
of its launch and the ledger messages the copies stand for — and
FillBoundary, ParallelCopy, the FillPatch coarse gather and AverageDown
are all "build the plan, run the plan".

A plan never holds an ndarray of patch data: copies name the source fab by
index and the cells by slices or integer index arrays, and ``fab.data`` is
looked up when the plan runs.  :meth:`MultiFab.plan` caches plans on the
MultiFab they write, which is rebuilt exactly when its layout changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.amr.boxarray import num_pts, slices
from repro.backend import LaunchSpec, parallel_for
from repro.mpi.ledger import Message

#: (source fab, source index, destination index); an index is a tuple over
#: the spatial axes of slices or integer arrays (the component axis is
#: prepended when the copy runs)
Copy = Tuple[int, tuple, tuple]
#: box-shaped copies as arrays, one row per copy: (destination fab,
#: source fab, source boxes ``(P, 2, dim)``, destination boxes)
Pairs = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass
class FabPlan:
    """One destination fab's share of a plan."""

    dst: int
    rank: int
    copies: List[Copy]
    npoints: int
    messages: Sequence[Message]


class CommPlan:
    """Copies, launch sizes and ledger messages of one communication op."""

    def __init__(self, comm) -> None:
        self.comm = comm
        #: the objects the plan was built against (set by MultiFab.plan)
        self.deps: tuple = ()
        self.fabs: Dict[int, FabPlan] = {}
        comm.plans_built += 1

    @classmethod
    def of_boxes(cls, dst, src, kind: str, ncomp: int, pairs: Pairs) -> "CommPlan":
        """A plan of box-shaped copies from MultiFab ``src`` into ``dst``,
        ``pairs`` sorted by destination fab.  A fab is charged its source
        points and messaged its destination bytes."""
        plan = cls(dst.comm)
        i, j, sbox, dbox = pairs
        copies = list(zip(j.tolist(), slices(sbox, src.grown[j]),
                          slices(dbox, dst.grown[i])))
        senders = np.asarray(src.dm.ranks())[j].tolist()
        nbytes = (num_pts(dbox) * ncomp * 8).tolist()
        npoints = np.bincount(i, num_pts(sbox), len(dst)).astype(int).tolist()
        ends = np.searchsorted(i, np.arange(len(dst) + 1)).tolist()
        for f, (a, b) in enumerate(zip(ends, ends[1:])):
            if a < b:
                plan.fabs[f] = FabPlan(
                    f, dst.dm[f], copies[a:b], npoints[f],
                    [dst.comm.message(s, dst.dm[f], n, kind)
                     for s, n in zip(senders[a:b], nbytes[a:b])])
        return plan

    def run(self, name: str, kernel_class: str,
            body: Callable[[FabPlan], None], record: bool = True,
            fabs: Optional[Iterable[FabPlan]] = None) -> None:
        """One launch per fab (all of them, in build order, unless ``fabs``
        says which): ``body(fab plan)``, then the fab's messages as one
        ledger batch (``record=False``: the second half of a split op)."""
        for fp in self.fabs.values() if fabs is None else fabs:

            def launch(fp=fp) -> None:
                body(fp)
                if record:
                    self.comm.ledger.record_many(fp.messages)

            parallel_for(name, launch, fp.npoints,
                         LaunchSpec(kernel_class=kernel_class, rank=fp.rank))


def overlaps(ba, regions: np.ndarray, shifts: np.ndarray = ()) -> Pairs:
    """Every box of ``ba`` meeting each region — directly, then through each
    periodic shift (rows of ``shifts``; source where the data is,
    destination in the region), in (region, shift, box) order."""
    offs = np.vstack([np.zeros(regions.shape[2], np.int64), *shifts])
    q, j, sbox = ba.intersect(
        (regions[:, None] + offs[None, :, None]).reshape(-1, 2, offs.shape[1]))
    i, s = np.divmod(q, len(offs))
    return i, j, sbox, sbox - offs[s, None]


def copy(dst: np.ndarray, src, copies: Sequence[Copy],
         src_comp: slice = slice(None), dst_comp: slice = slice(None),
         via: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> None:
    """Perform ``copies`` from the fabs of MultiFab ``src`` into ``dst``."""
    for j, sidx, didx in copies:
        vals = src.fab(j).data[(src_comp,) + sidx]
        dst[(dst_comp,) + didx] = vals if via is None else via(vals)
