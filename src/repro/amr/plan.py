"""Communication plans: copy metadata compiled once per layout, run per level.

AMReX builds the metadata of FillBoundary and ParallelCopy once per
(BoxArray, DistributionMapping, ghost width) and reuses it until the next
regrid.  A :class:`CommPlan` is that metadata for one operation writing
one MultiFab, compiled to flat offsets into the level buffers: ``src`` and
``dst`` (:class:`~repro.amr.multifab.Cells`), so a run is one gather and
one scatter (the boxes of a level are disjoint: no cell is written twice).
Per owning rank of destination fabs it keeps the launch a run is charged
(a :data:`~repro.backend.Share`) and the per-fab ledger messages, grouped
by receiving rank; a run is one launch per owning rank, the first
carrying the body (``ExecutionBackend.launch_shares``), then those
messages.  A plan holds offsets, never patch data:
:meth:`MultiFab.plan` caches it on the MultiFab it writes, which is
rebuilt exactly when its layout changes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.amr.boxarray import box_cells, num_pts
from repro.amr.multifab import Cells
from repro.backend import LaunchSpec, Share, current_backend
from repro.mpi.ledger import Message

#: box-shaped copies as arrays, one row per copy: (destination fab,
#: source fab, source boxes ``(P, 2, dim)``, destination boxes)
Pairs = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class CommPlan:
    """Flat offsets, launch sizes and ledger messages of one communication op."""

    def __init__(self, comm) -> None:
        self.comm = comm
        #: the objects the plan was built against (set by MultiFab.plan)
        self.deps: tuple = ()
        #: the cells copied, in the source and the destination buffer
        self.src: Optional[Cells] = None
        self.dst: Optional[Cells] = None
        self.shares: List[Share] = []
        #: what a run records, grouped by receiving rank in share order
        self.messages: List[Message] = []
        comm.plans_built += 1

    @classmethod
    def of_boxes(cls, dst, src, kind: str, kernel_class: str, ncomp: int,
                 pairs: Pairs, src_comp: int = 0, dst_comp: int = 0,
                 compile: bool = True) -> "CommPlan":
        """A plan of box-shaped copies of ``ncomp`` components from MultiFab
        ``src`` into ``dst``, ``pairs`` sorted by destination fab, run as
        ``kernel_class`` launches.  A fab is charged its source points and
        messaged its destination bytes as ``kind``; with ``compile`` the
        copies become the plan's offsets."""
        plan = cls(dst.comm)
        i, j, sbox, dbox = pairs
        ranks = np.asarray(dst.dm.ranks(), dtype=np.intp)[i]
        plan.shares = rank_shares(ranks, num_pts(sbox), kernel_class)
        plan.messages = by_share(plan.shares, [
            dst.comm.message(s, r, n, kind) for s, r, n in zip(
                np.asarray(src.dm.ranks())[j].tolist(), ranks.tolist(),
                (num_pts(dbox) * ncomp * 8).tolist())])
        if compile:
            # every cell of every copy, copy by copy, row-major in its box
            k, sflat, dflat = box_cells(sbox, (sbox[:, 0], src.grown[j]),
                                        (dbox[:, 0], dst.grown[i]))
            plan.src = src.cells(j[k], sflat, range(src_comp, src_comp + ncomp))
            plan.dst = dst.cells(i[k], dflat, range(dst_comp, dst_comp + ncomp))
        return plan

    def run(self, name: str, body: Callable[[], None],
            record: bool = True) -> None:
        """``body()`` in the plan's launches, then their messages
        (``record=False``: the second half of a split op)."""
        current_backend().launch_shares(name, body, self.shares)
        if record:
            self.comm.ledger.record_many(self.messages)

    def copy(self, dst: np.ndarray, src: np.ndarray) -> None:
        """The copies, from flat buffer ``src`` into flat buffer ``dst``."""
        self.dst.put(dst, self.src.take(src))


def rank_shares(ranks: np.ndarray, points: np.ndarray,
                kernel_class: str) -> List[Share]:
    """One ``kernel_class`` launch per owning rank in ``ranks``, by first
    appearance, over the ``points`` of its entries summed."""
    total = np.bincount(ranks, points).astype(int).tolist()
    return [(total[r], LaunchSpec(kernel_class, r))
            for r in dict.fromkeys(ranks.tolist())]


def by_share(shares: Sequence[Share],
             messages: Sequence[Message]) -> List[Message]:
    """``messages`` grouped by receiving rank in the order of ``shares``,
    in order within a rank."""
    at = {spec.rank: k for k, (_, spec) in enumerate(shares)}
    return sorted(messages, key=lambda m: at[m.dst])


def overlaps(ba, regions: np.ndarray, shifts: np.ndarray = ()) -> Pairs:
    """Every box of ``ba`` meeting each region — directly, then through each
    periodic shift (rows of ``shifts``; source where the data is,
    destination in the region), in (region, shift, box) order."""
    offs = np.vstack([np.zeros(regions.shape[2], np.int64), *shifts])
    q, j, sbox = ba.intersect(
        (regions[:, None] + offs[None, :, None]).reshape(-1, 2, offs.shape[1]))
    i, s = np.divmod(q, len(offs))
    return i, j, sbox, sbox - offs[s, None]
