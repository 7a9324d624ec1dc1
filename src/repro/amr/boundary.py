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
back to back are bit-identical to the old direct-copy loop; each is one
gather or scatter over the level buffer.  :class:`GhostFaces` holds the
ghost cells beyond the physical domain, for the physical boundary fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import cells, flat_index, lohi_of, meet, num_pts
from repro.amr.geometry import Geometry
from repro.amr.multifab import Cells, MultiFab
from repro.amr.plan import CommPlan, overlaps, rank_shares


def _build_plan(mf: MultiFab, geom: Optional[Geometry]) -> CommPlan:
    """Per destination fab, the ghost regions other patches cover: direct
    overlaps first, then periodic images (the historical write order)."""
    shifts = geom.periodic_shifts() if geom is not None else ()
    pairs = overlaps(mf.ba, mf.grown, shifts)
    i, _, _, dbox = pairs
    # a destination inside the valid box is the fab meeting itself
    ghost = ((dbox[:, 0] < mf.ba.lohi[i, 0])
             | (dbox[:, 1] > mf.ba.lohi[i, 1])).any(axis=1)
    return CommPlan.of_boxes(mf, mf, "fillboundary", "fillpatch", mf.ncomp,
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
        #: every message's values, snapshot at post time
        self._packed: Optional[np.ndarray] = None
        self._plan.run("FB_pack", self._pack)

    def _pack(self) -> None:
        self._packed = self._plan.src.take(self.mf.buffer)

    def _unpack(self) -> None:
        self._plan.dst.put(self.mf.buffer, self._packed)
        self._packed = None

    def finish(self) -> None:
        """Unpack every buffered message into its ghost region."""
        if self._packed is not None:
            self._plan.run("FB_unpack", self._unpack, record=False)


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


@dataclass
class Face:
    """A level's ghost cells beyond one face of the domain (each fab's layers
    beyond it, over its whole grown extent): ``ghost``, and per ghost cell
    the domain's last cell on its line (``edge``), its mirror image
    (``mirror``) and its x coordinate in the coordinate buffer (``x``)."""

    ghost: Cells
    edge: Cells
    mirror: Cells
    x: Cells


class GhostFaces:
    """The table a case's ``bc_fill`` fills a level from, built with the
    level storage: ``faces[axis, side]`` is the :class:`Face` beyond face
    ``side`` ("lo" / "hi") of ``axis``, for each face in ``wanted``, or None
    where no fab reaches beyond it; ``data`` is the state buffer."""

    def __init__(self, state: MultiFab, coords: MultiFab, domain: Box,
                 wanted: Sequence[Tuple[int, str]]) -> None:
        self.data, self._coords = state.buffer, coords.buffer
        self._faces = {key: _face(state, coords, lohi_of([domain])[0], *key)
                       for key in wanted}
        #: one BC_fill launch per owning rank, over its fabs' ghost points
        self.shares = rank_shares(
            np.asarray(state.dm.ranks(), dtype=np.intp),
            num_pts(state.grown) - num_pts(state.ba.lohi), "fillpatch")

    def __getitem__(self, key: Tuple[int, str]) -> Optional[Face]:
        return self._faces[key]

    def x(self, face: Face) -> np.ndarray:
        """The physical x coordinate of each of ``face``'s ghost cells."""
        return face.x.take(self._coords)[0]


def _face(state: MultiFab, coords: MultiFab, domain: np.ndarray, axis: int,
          side: str) -> Optional[Face]:
    hi = ("lo", "hi").index(side)
    bound = domain[hi, axis]
    beyond = state.grown.copy()
    beyond[:, 1 - hi, axis] = bound + 2 * hi - 1
    fabs = np.nonzero(num_pts(beyond))[0]
    if not len(fabs):
        return None
    k, at = cells(beyond[fabs])
    fab, grown = fabs[k], state.grown[fabs[k]]
    cell = flat_index(at, grown)
    # each cell's step along ``axis`` in its fab's array
    step = np.prod(grown[:, 1, axis + 1:] - grown[:, 0, axis + 1:] + 1, axis=1)
    return Face(state.cells(fab, cell),
                state.cells(fab, cell + (bound - at[:, axis]) * step),
                state.cells(fab, cell + (2 * bound + 2 * hi - 1
                                         - 2 * at[:, axis]) * step),
                coords.cells(fab, cell, range(1)))
