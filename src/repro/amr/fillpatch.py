"""FillPatch: assemble ghost data for a level from all available sources.

Mirrors ``amrex::FillPatchUtil``:

- :func:`fill_patch_single_level` — for the coarsest level: same-level
  ghost exchange (point-to-point FillBoundary).
- :func:`fill_patch_two_levels` — for finer levels: same-level exchange,
  then coarse-to-fine interpolation into ghost cells at coarse/fine
  interfaces.  When the interpolator needs
  physical coordinates (the curvilinear scheme), the coordinates MultiFab
  is first copied into a temporary with extra ghost cells via a *global*
  ``ParallelCopy`` — the communication bottleneck the paper isolates by
  comparing CRoCCo 2.0 (custom curvilinear interpolator) with 2.1
  (built-in trilinear interpolator, no ParallelCopy).
- :func:`fill_coarse_patch` — fill valid cells of a new fine level from
  coarse data (used by regrid where no old fine cell exists).

Physical boundary conditions are the driver's one launch after any of them.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.amr.boundary import boundary_regions, fill_boundary_nowait
from repro.amr.box import Box
from repro.amr.boxarray import (BoxArray, box_cells, boxes_of, cells,
                                coarsen, flat_index, grow, num_pts)
from repro.amr.fab import FArrayBox
from repro.amr.geometry import Geometry
from repro.amr.intvect import IntVect, IntVectLike
from repro.amr.interpolate import Interpolator, apply_stencil
from repro.amr.multifab import MultiFab
from repro.amr.plan import CommPlan, by_share, overlaps, rank_shares
from repro.backend import Share, current_backend


def _region(profiler, name: str):
    """The profiler's sub-region, or a no-op context when unprofiled."""
    return profiler.region(name) if profiler is not None else nullcontext()


class FillPatchOp:
    """Nowait/finish split of FillPatchSingleLevel / FillPatchTwoLevels.

    The eager functions below run all phases back to back; the runtime's
    task graph instead posts the communication halves early and runs
    interior kernels in the gap.  Phases, in dependency order:

    - :meth:`post_fillboundary` — pack the same-level ghost exchange
      (``FillBoundary_nowait``); pure communication, reads valid cells.
    - :meth:`post_coords` — for the curvilinear two-level fill, the
      *global* ParallelCopy gathering coarse coordinates into a ghosted
      temporary (the CRoCCo 2.0 bottleneck the paper isolates).
    - :meth:`finish_fillboundary` — unpack into same-level ghosts
      (``FillBoundary_finish``).
    - :meth:`interp_fab` — interpolate coarse data into the coarse/fine
      ghosts of the whole level in one pass (two-level only; needs the
      posted coordinates — a task graph edge — and the coarse level).

    Running the phases immediately in this order is bit-identical to the
    eager functions.  Physical boundary conditions are the caller's
    (``Crocco._bc_fill``), after the fill.
    """

    def __init__(
        self,
        fine: MultiFab,
        geom_fine: Geometry,
        crse: Optional[MultiFab] = None,
        ratio: Optional[IntVectLike] = None,
        interp: Optional[Interpolator] = None,
        crse_coords: Optional[MultiFab] = None,
        fine_coords: Optional[MultiFab] = None,
    ) -> None:
        self.fine = fine
        self.geom_fine = geom_fine
        self.crse = crse
        self.interp = interp
        self.crse_coords = crse_coords
        self.fine_coords = fine_coords
        self._r = (IntVect.coerce(ratio, fine.dim)
                   if ratio is not None else None)
        self._fb = None
        self._plan: Optional[CommPlan] = None

    def post_fillboundary(self) -> None:
        """FillBoundary_nowait: pack the same-level ghost exchange."""
        self._fb = fill_boundary_nowait(self.fine, self.geom_fine)

    def _fill_plan(self) -> CommPlan:
        """The level's coarse-gather + interpolation plan: cached on the
        fine MultiFab, rebuilt when the coarse level (or a coordinate
        MultiFab, or the interpolator) it was built against is replaced —
        a regrid can replace the coarse level under an unchanged fine one."""
        if self._plan is None:
            self._plan = self.fine.plan(
                ("fillpatch", self._r.tup()),
                (self.crse, self.crse_coords, self.fine_coords, self.interp),
                lambda: build_fill_plan(
                    self.fine, self.crse, self.geom_fine, self._r, self.interp,
                    self.crse_coords, self.fine_coords))
        return self._plan

    def post_coords(self) -> None:
        """The curvilinear interpolator's ParallelCopy: gather the coarse
        coordinates into a temporary MultiFab with enough extra ghost
        cells to cover every interpolation stencil.  This is global
        communication (any rank's coordinates may be needed anywhere), and
        CRoCCo 2.0 pays it at every FillPatch: its launches and messages
        are replayed from the fill plan; the values it would copy are read
        from the coarse coordinates, once, when the plan made its weights."""
        if self.interp.needs_coords:
            self._fill_plan().coords.run("PC_copy", lambda: None)

    def finish_fillboundary(self) -> None:
        """FillBoundary_finish: unpack buffers into same-level ghosts."""
        self._fb.finish()

    def interp_fab(self) -> None:
        """Interpolate the level's coarse/fine ghosts in one pass (the name
        ``benchmarks/e2e/spans.py`` times as ``amr.interp``)."""
        _fill_level(self._fill_plan(), self.fine, self.crse, self._r,
                    self.interp)


def fill_patch_single_level(mf: MultiFab, geom: Geometry,
                            profiler=None) -> None:
    """FillBoundary for one level (its physical boundary is the caller's)."""
    op = FillPatchOp(mf, geom)
    with _region(profiler, "FillBoundary"):
        op.post_fillboundary()
        op.finish_fillboundary()


def fill_patch_two_levels(
    fine: MultiFab,
    crse: MultiFab,
    geom_fine: Geometry,
    geom_crse: Geometry,
    ratio: IntVectLike,
    interp: Interpolator,
    crse_coords: Optional[MultiFab] = None,
    fine_coords: Optional[MultiFab] = None,
    profiler=None,
) -> None:
    """Fill ``fine``'s ghost cells from fine neighbors and coarse data."""
    op = FillPatchOp(fine, geom_fine, crse=crse, ratio=ratio, interp=interp,
                     crse_coords=crse_coords, fine_coords=fine_coords)
    with _region(profiler, "FillBoundary"):
        op.post_fillboundary()
        op.finish_fillboundary()
    with _region(profiler, "ParallelCopy"):
        op.post_coords()
        op.interp_fab()


def fill_coarse_patch(
    fine: MultiFab,
    crse: MultiFab,
    geom_fine: Geometry,
    ratio: IntVectLike,
    interp: Interpolator,
    crse_coords: Optional[MultiFab] = None,
    fine_coords: Optional[MultiFab] = None,
    profiler=None,
    pieces: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> None:
    """Fill the valid cells of ``fine`` in ``(pieces, owner)`` — disjoint
    boxes ``(P, 2, dim)`` in the valid boxes and the fab of each, sorted by
    it; by default every valid cell — by interpolation from ``crse``.  A
    regrid fills here only where no old fine cell exists."""
    r = IntVect.coerce(ratio, fine.dim)
    pieces = pieces if pieces is not None else (fine.ba.lohi, np.arange(len(fine)))
    with _region(profiler, "ParallelCopy"):
        plan = build_fill_plan(fine, crse, geom_fine, r, interp, crse_coords,
                               fine_coords, pieces)
        if plan.coords is not None:
            plan.coords.run("PC_copy", lambda: None)
        _fill_level(plan, fine, crse, r, interp)


class FillPlan(CommPlan):
    """A level's two-level fill: the coarse gather (``src``: every piece's
    scratch patch, end to end), then into ``dst`` the linear stencil ``idx``
    / ``w`` (None: equal weights) or ``interp()`` per piece of ``regions``
    (fine box, coarse region, patch offset); ``coords``: the coordinates'
    ParallelCopy when the interpolator needs one."""

    coords: Optional[CommPlan] = None
    idx: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None
    regions: Optional[List[Tuple[Box, Box, int]]] = None
    interp_shares: Sequence[Share] = ()


def build_fill_plan(fine: MultiFab, crse: MultiFab, geom_fine: Geometry,
                    r: IntVect, interp: Interpolator,
                    crse_coords: Optional[MultiFab] = None,
                    fine_coords: Optional[MultiFab] = None,
                    pieces: Optional[Tuple[np.ndarray, np.ndarray]] = None
                    ) -> FillPlan:
    """Plan the fill of ``(pieces, owner)`` (by default every fine fab's
    coarse/fine ghost pieces) by interpolation from ``crse``.

    All pieces' coarse stencil regions are gathered into one flat scratch
    patch, region after region: every patch cell names the coarse cell it
    copies —
    through a periodic wrap where the region leaves a periodic domain, and
    the nearest covered cell where no coarse box reaches (beyond a physical
    boundary or a marginally nested coarse level; the physical boundary
    fill afterwards overrides anything that matters).  Out of that patch
    the level interpolates through the interpolator's stencil, computed here
    for every fine cell of the level in one pass (coordinates change only
    at regrid), or, when it has none, piece by piece through ``interp()``.
    Launch points and messages are those of CRoCCo's per-piece gathers of
    state and coordinates.
    """
    plan = FillPlan(fine.comm)
    # all the level's pieces at once, each with the fab that owns it
    pieces, owner = (pieces if pieces is not None
                     else boundary_regions(fine, geom_fine))
    cregions = grow(coarsen(pieces, r), interp.radius)
    ncell, nfine = num_pts(cregions), num_pts(pieces)
    cell0 = np.concatenate([[0], np.cumsum(ncell)])
    fab_of, cell_of, p, senders, nbytes = _patch_sources(
        crse, cregions, cell0[:-1], geom_fine.periodic_shifts(r))
    # every fine cell to fill: the piece it belongs to and its index
    k, at = cells(pieces)
    points, coords = ncell, None
    if interp.needs_coords:
        if crse_coords is None or fine_coords is None:
            raise ValueError("curvilinear interpolation requires coordinate MultiFabs")
        cboxes = grow(cregions, 1)
        plan.coords, (ccoords, cstart), (cp, csenders, cbytes) = _gather_coords(
            crse, crse_coords, interp.radius, cboxes)
        coords = (ccoords, cboxes, cstart, fine_coords.cells(
            owner[k], flat_index(at, fine_coords.grown[owner[k]])).take(
                fine_coords.buffer))
        points = ncell + num_pts(cboxes)
        # a piece's messages: its state gather's, then its coordinates'
        order = np.argsort(np.concatenate([2 * p, 2 * cp + 1]), kind="stable")
        p, senders, nbytes = (np.concatenate(both)[order] for both in (
            (p, cp), (senders, csenders), (nbytes, cbytes)))
    stencil = interp.stencil(k, at, r, cregions, coords)
    if stencil is None:
        plan.regions = list(zip(boxes_of(pieces), boxes_of(cregions),
                                cell0[:-1].tolist()))
    else:
        plan.idx, plan.w = stencil
        # from each piece's coarse region to its place in the patch
        plan.idx += cell0[:-1][k]
    plan.src = crse.cells(fab_of, cell_of)
    plan.dst = fine.cells(owner[k], flat_index(at, fine.grown[owner[k]]),
                          range(min(fine.ncomp, crse.ncomp)))
    # one launch per owning rank: a piece is charged to its fab's rank
    rank = np.asarray(fine.dm.ranks(), dtype=np.intp)[owner]
    plan.shares = rank_shares(rank, points, "fillpatch")
    plan.messages = by_share(plan.shares, [
        crse.comm.message(src, dst, n, "parallelcopy") for src, dst, n in
        zip(senders.tolist(), rank[p].tolist(), nbytes.tolist())])
    plan.interp_shares = rank_shares(rank, nfine, "interp")
    return plan


def _patch_sources(crse: MultiFab, cregions: np.ndarray, start: np.ndarray,
                   shifts):
    """Per cell of the scratch patches over ``cregions`` (laid out one
    after the other, region ``n`` from ``start[n]``), the coarse fab it
    copies from and the flat cell in that fab's array; and the gathers'
    ledger messages, one per coarse box a region meets, sorted by region:
    the region, the sending rank and the bytes."""
    ncell = num_pts(cregions)
    fab_of = np.full(ncell.sum(), -1)
    cell_of = np.zeros(ncell.sum(), dtype=np.intp)
    p, j, sbox, dbox = overlaps(crse.ba, cregions, shifts)
    # boxes of one level are disjoint, and so are their periodic images:
    # no patch cell is written twice
    k, to, from_cell = box_cells(dbox, (dbox[:, 0], cregions[p]),
                                 (sbox[:, 0], crse.grown[j]))
    to += start[p[k]]
    fab_of[to] = j[k]
    cell_of[to] = from_cell
    covered = np.bincount(p, num_pts(dbox), len(cregions))
    for n in np.nonzero(covered < ncell)[0]:
        if not covered[n]:
            raise ValueError("no coarse data available for region "
                             f"{boxes_of(cregions[n:n + 1])[0]}")
        # an uncovered cell copies what its nearest covered cell copies
        cell = slice(start[n], start[n] + ncell[n])
        near = np.where(fab_of[cell] < 0, np.nan, np.arange(ncell[n])).reshape(
            (1,) + tuple(cregions[n, 1] - cregions[n, 0] + 1))
        _nearest_fill(near)
        near = near.ravel().astype(np.intp)
        fab_of[cell], cell_of[cell] = fab_of[cell][near], cell_of[cell][near]
    return (fab_of, cell_of, p, np.asarray(crse.dm.ranks())[j],
            num_pts(dbox) * crse.ncomp * 8)


def _gather_coords(crse: MultiFab, crse_coords: MultiFab, radius: int,
                   cboxes: np.ndarray):
    """The curvilinear interpolator's ParallelCopy — into a temporary on the
    coarse layout with enough ghost cells to cover every stencil (and one
    more, so edge weights are defined) — and, in one gather out of it, the
    coordinates over every box of ``cboxes`` laid out box after box (box
    ``n`` from ``start[n]``).  A cell of a coarse box holds its coordinates
    in every fab whose ghosts reach it, so it is read from that box's fab,
    where the copy put the box's own: the gather reads ``crse_coords``, and
    the copy is only its launches and messages, planned once per coarse
    layout (cached on ``crse_coords``).  A cell of no coarse box holds 0.0
    where a fab's ghosts reach (the copy writes valid cells only) and takes
    its nearest cell's value within its box beyond them.  Returns the copy
    plan, ``(values, start)`` and the per-box gathers' messages as
    :func:`_patch_sources`."""
    ncomp, grown = crse_coords.ncomp, grow(
        crse.ba.lohi, crse.ngrow + IntVect.filled(crse.dim, radius + 1))
    pc = crse_coords.plan(("coords", radius), (crse,), lambda: (
        CommPlan.of_boxes(crse, crse_coords, "parallelcopy", "fillpatch", ncomp,
                          overlaps(crse_coords.ba, grown), compile=False)))
    start = np.concatenate([[0], np.cumsum(num_pts(cboxes))])
    out = np.full((ncomp, start[-1]), np.nan)
    q, j, cover = crse_coords.ba.intersect(cboxes)
    n, to, cell = box_cells(cover, (cover[:, 0], cboxes[q]),
                            (cover[:, 0], crse_coords.grown[j]))
    out[:, start[q[n]] + to] = crse_coords.cells(j[n], cell).take(
        crse_coords.buffer)
    short = np.nonzero(np.bincount(q, num_pts(cover), len(cboxes))
                       < np.diff(start))[0]
    if len(short):
        n, at = cells(cboxes[short])
        to = start[short[n]] + flat_index(at, cboxes[short[n]])
        hole = np.isnan(out[0, to])
        reached = ((grown[:, 0] <= at[hole, None])
                   & (at[hole, None] <= grown[:, 1])).all(axis=2).any(axis=1)
        out[:, to[hole][reached]] = 0.0
        for m in np.unique(short[n[hole][~reached]]).tolist():
            _nearest_fill(out[:, start[m]:start[m + 1]].reshape(
                (ncomp,) + tuple(cboxes[m, 1] - cboxes[m, 0] + 1)))
    p, j, cover = BoxArray(grown).intersect(cboxes)
    return pc, (out, start[:-1]), (
        p, np.asarray(crse.dm.ranks())[j], num_pts(cover) * ncomp * 8)


def _fill_level(plan: FillPlan, fine: MultiFab, crse: MultiFab, r: IntVect,
                interp: Interpolator) -> None:
    """Run a fill plan: one gather of every piece's coarse patch, one pass
    filling every piece, as ``PC_gather`` / ``Interp_<label>`` launches."""
    patch = []
    plan.run("PC_gather", lambda: patch.append(plan.src.take(crse.buffer)))

    def interpolate() -> None:
        coarse = patch.pop()
        if plan.idx is not None:
            vals = apply_stencil(coarse, plan.idx, plan.w)
        else:
            vals = np.concatenate([interp.interp(FArrayBox(
                cregion, crse.ncomp, data=coarse[
                    :, offset:offset + cregion.num_pts()].reshape(
                        (-1,) + cregion.shape())), piece, r).reshape(
                            crse.ncomp, -1)
                for piece, cregion, offset in plan.regions], axis=1)
        plan.dst.put(fine.buffer, vals[:plan.dst.ncomp])

    current_backend().launch_shares(f"Interp_{interp.kernel_label}",
                                    interpolate, plan.interp_shares)


def _nearest_fill(data: np.ndarray) -> None:
    """Replace NaNs by sweeping each axis with forward/backward fill.

    After the sweeps every cell holds the value of a nearby covered cell
    (exact nearest along the first axis that reaches one).
    """
    for axis in range(1, data.ndim):
        for flip in (False, True):            # forward fill, then backward
            nan = np.isnan(data)
            if not nan.any():
                return
            view = np.flip(data, axis) if flip else data
            shape = [1] * data.ndim
            shape[axis] = -1
            # index of the last covered cell at or before each cell
            last = np.where(np.flip(nan, axis) if flip else nan, 0,
                            np.arange(data.shape[axis]).reshape(shape))
            np.maximum.accumulate(last, axis=axis, out=last)
            view[...] = np.take_along_axis(view, last, axis)
    if np.isnan(data).any():
        raise ValueError("coarse gather region entirely uncovered")
