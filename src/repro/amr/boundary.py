"""FillBoundary: ghost-cell exchange between same-level patches.

This is the point-to-point part of AMReX's FillPatch machinery: every
patch's ghost cells that are covered by another patch's valid region (or by
a periodic image of one) are copied over, and each copy is recorded in the
communicator's ledger as a ``fillboundary`` message between the owning
ranks.  Ghost cells not covered by any patch (physical-boundary or
coarse/fine-interface ghosts) are left untouched — those are filled by
``BC_Fill`` and by interpolation in FillPatchTwoLevels respectively.

The exchange is split MPI-style into a *nowait* half that packs send
buffers from valid data (and logs the messages) and a *finish* half that
unpacks them into ghost cells — mirroring ``FillBoundary_nowait`` /
``FillBoundary_finish`` in AMReX, which is what lets the runtime overlap
the in-flight exchange with interior computation.  Because packing reads
only valid cells and unpacking writes only ghost cells, the two halves run
back to back are bit-identical to the old direct-copy loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.amr.boxarray import lohi_of, meet
from repro.amr.geometry import Geometry
from repro.amr.multifab import MultiFab
from repro.amr.plan import CommPlan, overlaps


def _build_plan(mf: MultiFab, geom: Optional[Geometry]) -> CommPlan:
    """Per destination fab, the ghost regions other patches cover: direct
    overlaps first, then periodic images (the historical write order)."""
    shifts = geom.periodic_shifts() if geom is not None else ()
    pairs = overlaps(mf.ba, mf.grown, shifts)
    i, _, _, dbox = pairs
    # a destination inside the valid box is the fab meeting itself
    ghost = ((dbox[:, 0] < mf.ba.lohi[i, 0])
             | (dbox[:, 1] > mf.ba.lohi[i, 1])).any(axis=1)
    return CommPlan.of_boxes(mf, mf, "fillboundary", mf.ncomp,
                             tuple(x[ghost] for x in pairs))


class FillBoundaryHandle:
    """An in-flight ghost exchange: posted (packed) but not yet unpacked.

    Created by :func:`fill_boundary_nowait`; call :meth:`finish` to unpack
    the buffers into ghost cells.  Finishing twice is a no-op.
    """

    def __init__(self, mf: MultiFab, geom: Optional[Geometry] = None) -> None:
        self.mf = mf
        self._plan = mf.plan(
            ("fillboundary", geom and (geom.domain, geom.periodic)), (),
            lambda: _build_plan(mf, geom))
        #: destination fab -> snapshots of its source regions, in copy order
        self._packets: Dict[int, List[np.ndarray]] = {}
        self._plan.run("FB_pack", "fillpatch", self._pack)

    def _pack(self, fp) -> None:
        self._packets[fp.dst] = [
            np.array(self.mf.fab(j).data[(slice(None),) + sidx], copy=True)
            for j, sidx, _ in fp.copies]

    def _unpack(self, fp) -> None:
        data = self.mf.fab(fp.dst).data
        for (_, _, didx), buf in zip(fp.copies, self._packets.pop(fp.dst)):
            data[(slice(None),) + didx] = buf

    def finish(self) -> None:
        """Unpack every buffered message into its ghost region."""
        if self._packets:
            self._plan.run("FB_unpack", "fillpatch", self._unpack,
                           record=False)


def fill_boundary_nowait(mf: MultiFab,
                         geom: Optional[Geometry] = None) -> FillBoundaryHandle:
    """Post the ghost exchange for ``mf``: pack buffers, log messages.

    Returns a handle whose :meth:`~FillBoundaryHandle.finish` writes the
    ghost cells.  Between post and finish the valid data of ``mf`` may be
    read freely, and unrelated computation may write *other* MultiFabs —
    the gap the runtime fills with interior kernels.
    """
    return FillBoundaryHandle(mf, geom)


def boundary_regions(mf: MultiFab, geom: Optional[Geometry] = None):
    """The ghost sub-boxes of every fab not covered by any same-level patch,
    as ``(P, 2, dim)`` pieces and the fab each belongs to ``(P,)``.

    These are the cells that physical boundary conditions (BC_Fill) or
    coarse-to-fine interpolation must supply; given ``geom``, only the
    latter: inside the domain (a periodic direction has no outside) and
    not covered by a periodic image of a patch either.
    """
    if geom is None:
        return mf.ba.complement(mf.grown)
    dom, per = lohi_of([geom.domain])[0], np.array(geom.periodic)
    pieces, fab = mf.ba.complement(np.where(
        per, mf.grown, meet(mf.grown, dom)))
    for s in geom.periodic_shifts():
        pieces, src = mf.ba.complement(pieces + s)
        pieces, fab = pieces - s, fab[src]
    return pieces, fab
