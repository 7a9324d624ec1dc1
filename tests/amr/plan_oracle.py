"""The reference box algebra and plan builders: the metadata producers as
they were before the batched ``(N, 2, dim)`` algebra of
``repro.amr.boxarray`` replaced them, verbatim — one ``Box`` object per
overlap, one query per fab — and the interpolators' stencils as they were
before one array pass over all of a level's pieces replaced them: one
call per piece, with the piece's coarse coordinates in an ``FArrayBox``.
And the executor the flat one (one ``np.take`` / ``np.put`` per level)
replaced: plans that name their copies as ``(source fab, slices or index
arrays)`` per destination fab, run one fab and one copy at a time by
:func:`copy`, verbatim.

They left ``src/`` for speed (the object algebra was ~45% of a step that
regrids, the per-piece stencils over half of the finest level's plan
build) and stay here as the oracle: ``tests/amr/test_plan_oracle.py``
requires the batched primitives to give the same boxes in the same order,
and every ``CommPlan`` / ``FillPlan`` to be equal to these fab for fab.
The one thing not verbatim is :func:`intersecting`, which was a walk over
a spatial hash and is a scan over every box here.  :func:`diff` is the
scalar ``Box.diff`` all of them were built on.
"""

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.average_down import _block_mean
from repro.amr.fab import FArrayBox
from repro.amr.fillpatch import _nearest_fill
from repro.amr.geometry import Geometry
from repro.amr.interp_curvilinear import CurvilinearInterp
from repro.amr.interpolate import TrilinearInterp, apply_stencil
from repro.amr.intvect import IntVect
from repro.amr.multifab import MultiFab
from repro.mpi.ledger import Message

BoxPair = Tuple[int, Box, Box]


# -- Box queries -------------------------------------------------------------------

def diff(a: Box, b: Box) -> List[Box]:
    """``a`` minus ``b``, as a disjoint list of boxes (``Box.diff``)."""
    isect = a.intersect(b)
    if isect.is_empty():
        return [a]
    out: List[Box] = []
    rem = a
    for d in range(a.dim):
        if rem.lo[d] < isect.lo[d]:
            low, rem = rem.chop(d, isect.lo[d])
            out.append(low)
        if isect.hi[d] < rem.hi[d]:
            rem, high = rem.chop(d, isect.hi[d] + 1)
            out.append(high)
    return out


# -- BoxArray queries ------------------------------------------------------------

def intersecting(ba, region: Box) -> List[int]:
    """Indices of boxes intersecting ``region`` (sorted)."""
    return [i for i, b in enumerate(ba) if b.intersects(region)]


def intersections(ba, region: Box) -> List[Tuple[int, Box]]:
    return [(i, ba[i].intersect(region)) for i in intersecting(ba, region)]


def complement_in(ba, region: Box) -> List[Box]:
    """The part of ``region`` not covered by any box, as disjoint boxes."""
    remaining = [region]
    for i in intersecting(ba, region):
        nxt: List[Box] = []
        for r in remaining:
            nxt.extend(diff(r, ba[i]))
        remaining = nxt
        if not remaining:
            break
    return remaining


def _shifts(geom: Geometry) -> List[IntVect]:
    """The periodic shifts as index vectors."""
    return [IntVect(*s) for s in geom.periodic_shifts().tolist()]


def overlaps(ba, region: Box, shifts: Iterable = ()) -> List[BoxPair]:
    """Every box of ``ba`` meeting ``region`` — directly, then through each
    periodic shift (source where the data is, destination in ``region``)."""
    out = [(j, o, o) for j, o in intersections(ba, region)]
    for s in shifts:
        out += [(j, o, o.shift(s * -1)) for j, o in intersections(ba, region.shift(s))]
    return out


def boundary_regions(mf: MultiFab, i: int,
                     geom: Optional[Geometry] = None) -> List[Box]:
    """The ghost sub-boxes of fab ``i`` not covered by any same-level patch."""
    region = mf.fab(i).grown_box()
    if geom is None:
        return complement_in(mf.ba, region)
    dom, per = geom.domain, geom.periodic
    region = Box(
        [l if p else max(l, d) for l, d, p in zip(region.lo, dom.lo, per)],
        [h if p else min(h, d) for h, d, p in zip(region.hi, dom.hi, per)])
    pieces = complement_in(mf.ba, region)
    for s in _shifts(geom):
        pieces = [q.shift(s * -1) for p in pieces
                  for q in complement_in(mf.ba, p.shift(s))]
    return pieces


# -- regrid ------------------------------------------------------------------------

def _dedup_diffs(box: Box, existing: List[Box]) -> List[Box]:
    """``box`` minus all boxes in ``existing`` as disjoint pieces."""
    pieces = [box]
    for e in existing:
        nxt: List[Box] = []
        for p in pieces:
            nxt.extend(diff(p, e))
        pieces = nxt
        if not pieces:
            break
    return pieces


def disjoint(boxes: List[Box]) -> List[Box]:
    """The make-disjoint loop of ``cluster_tags`` (earlier boxes win)."""
    out: List[Box] = []
    for b in boxes:
        out.extend(_dedup_diffs(b, out))
    return out


def _clip_to_coverage(cov: BoxArray, domain: Box, n_proper: int,
                      ba_c: BoxArray) -> BoxArray:
    """Proper nesting: keep new grids ``n_proper`` cells inside ``cov``
    (``AmrCore._clip_to_coverage``, its ``self`` spelled out)."""
    # uncovered regions of the level-lev domain, grown by the buffer
    forbidden = [
        u.grow(n_proper)
        for u in complement_in(cov, domain)
    ]
    out: List[Box] = []
    for b in ba_c:
        for _, overlap in intersections(cov, b):
            pieces = [overlap]
            for f in forbidden:
                nxt: List[Box] = []
                for p in pieces:
                    nxt.extend(diff(p, f))
                pieces = nxt
                if not pieces:
                    break
            for p in pieces:
                out.extend(_dedup_diffs(p, out))
    out.sort(key=lambda b: b.lo.tup())
    return BoxArray(out)


# -- communication plans, and their per-copy executor -----------------------------

#: (source fab, source index, destination index); an index is a tuple over
#: the spatial axes of slices or integer arrays (the component axis is
#: prepended when the copy runs)
Copy = Tuple[int, tuple, tuple]


@dataclass
class FabPlan:
    """One destination fab's share of a plan."""

    dst: int
    rank: int
    copies: List[Copy]
    npoints: int
    messages: Sequence[Message]


@dataclass
class FillFabPlan(FabPlan):
    """A fine fab's coarse gather (the FabPlan) and its interpolation."""

    #: cells of the gathered scratch patch
    ncells: int
    #: fine points filled — the Interp launch's point count
    nfilled: int
    #: the linear stencil over the patch (corner cells, weights or None for
    #: equal ones) and the fab cells it fills
    idx: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None
    dst_cells: Optional[tuple] = None
    #: without a stencil, ``interp()`` per piece: (fine box, coarse region,
    #: offset in the patch)
    regions: Optional[List[Tuple[Box, Box, int]]] = None


class CommPlan:
    """The per-fab plans of one operation (``coords``: a fill's coordinate
    ParallelCopy)."""

    def __init__(self, comm) -> None:
        self.comm = comm
        self.fabs = {}
        self.coords = None

    def run(self, body) -> None:
        """One fab at a time, in build order: ``body(fab plan)``, then the
        fab's messages as one ledger batch."""
        for fp in self.fabs.values():
            body(fp)
            self.comm.ledger.record_many(fp.messages)


FillPlan = CommPlan


def copy(dst: np.ndarray, src, copies: Sequence[Copy],
         src_comp: slice = slice(None), dst_comp: slice = slice(None),
         via=None) -> None:
    """Perform ``copies`` from the fabs of MultiFab ``src`` into ``dst``."""
    for j, sidx, didx in copies:
        vals = src.fab(j).data[(src_comp,) + sidx]
        dst[(dst_comp,) + didx] = vals if via is None else via(vals)


def run_fill_boundary(mf: MultiFab, geom: Optional[Geometry]) -> None:
    """FillBoundary: pack every fab's messages, then unpack them."""
    packets = {}
    plan = fill_boundary_plan(mf, geom)
    plan.run(lambda fp: packets.__setitem__(fp.dst, [
        np.array(mf.fab(j).data[(slice(None),) + sidx], copy=True)
        for j, sidx, _ in fp.copies]))
    for fp in plan.fabs.values():
        data = mf.fab(fp.dst).data
        for (_, _, didx), buf in zip(fp.copies, packets.pop(fp.dst)):
            data[(slice(None),) + didx] = buf


def run_parallel_copy(dst: MultiFab, src: MultiFab, fill_ghosts: bool) -> None:
    copy_plan(dst, src, src.ncomp, fill_ghosts).run(
        lambda fp: copy(dst.fab(fp.dst).data, src, fp.copies))


def run_average_down(fine: MultiFab, crse: MultiFab, r: IntVect) -> None:
    average_down_plan(fine, crse, r).run(
        lambda fp: copy(crse.fab(fp.dst).data, fine, fp.copies,
                        via=lambda v: _block_mean(v, r)))


def run_fill(plan: FillPlan, fine: MultiFab, crse: MultiFab, r: IntVect,
             interp) -> None:
    """A fill plan, fab by fab: the coordinate copy's messages, then per
    fab its coarse gather into a scratch patch and the interpolation."""
    if plan.coords is not None:
        plan.coords.run(lambda fp: None)

    def fill(fp):
        fab = fine.fab(fp.dst)
        patch = np.empty((crse.ncomp, fp.ncells))
        copy(patch, crse, fp.copies)
        nc = min(fab.ncomp, crse.ncomp)
        if fp.idx is not None:
            fab.data[(slice(0, nc),) + fp.dst_cells] = apply_stencil(
                patch, fp.idx, fp.w)[:nc]
            return
        for piece, cregion, offset in fp.regions:
            cfab = FArrayBox(cregion, crse.ncomp, data=patch[
                :, offset:offset + cregion.num_pts()].reshape(
                    (-1,) + cregion.shape()))
            fab.view(piece, slice(0, nc))[...] = interp.interp(
                cfab, piece, r)[:nc]

    plan.run(fill)


def of_boxes(dst, src, kind: str, ncomp: int, pairs_of) -> CommPlan:
    """``CommPlan.of_boxes``: ``pairs_of(i, fab)`` lists fab ``i``'s copies."""
    plan = CommPlan(dst.comm)
    for i, dfab in dst:
        pairs = pairs_of(i, dfab)
        if pairs:
            plan.fabs[i] = FabPlan(
                i, dst.dm[i],
                [(j, s.slices(src.fab(j).grown_box()),
                  d.slices(dfab.grown_box())) for j, s, d in pairs],
                sum(s.num_pts() for _, s, _ in pairs),
                [dst.comm.message(src.dm[j], dst.dm[i],
                                  d.num_pts() * ncomp * 8, kind)
                 for j, _, d in pairs])
    return plan


def fill_boundary_plan(mf: MultiFab, geom: Optional[Geometry]) -> CommPlan:
    def pairs(i, dst):
        grown = dst.grown_box()
        shifts = _shifts(geom) if geom is not None else ()
        # a destination inside the valid box is the fab meeting itself
        return [p for p in overlaps(mf.ba, grown, shifts)
                if not dst.box.contains(p[2])]

    return of_boxes(mf, mf, "fillboundary", mf.ncomp, pairs)


def copy_plan(dst: MultiFab, src: MultiFab, ncomp: int,
              fill_ghosts: bool) -> CommPlan:
    return of_boxes(
        dst, src, "parallelcopy", ncomp,
        lambda i, fab: overlaps(src.ba,
                                fab.grown_box() if fill_ghosts else fab.box))


def _fully_covered(fbox: Box, r: IntVect) -> Box:
    """Largest coarse box whose refinement lies inside ``fbox``."""
    lo = [-(-l // rr) for l, rr in zip(fbox.lo, r)]  # ceil division
    hi = [(h + 1) // rr - 1 for h, rr in zip(fbox.hi, r)]
    return Box(IntVect(*lo), IntVect(*hi))


def average_down_plan(fine: MultiFab, crse: MultiFab, r: IntVect) -> CommPlan:
    def pairs(i, cfab):
        covered = ((j, _fully_covered(fine.ba[j], r).intersect(cfab.box))
                   for j in intersecting(fine.ba, cfab.box.refine(r)))
        return [(j, c.refine(r), c) for j, c in covered if not c.is_empty()]

    return of_boxes(crse, fine, "averagedown", crse.ncomp, pairs)


# -- the two-level fill ------------------------------------------------------------

def build_fill_plan(fine: MultiFab, crse: MultiFab, geom_fine: Geometry,
                    r: IntVect, interp, crse_coords=None, fine_coords=None,
                    whole: bool = False) -> FillPlan:
    plan = FillPlan(fine.comm)
    geom_crse = Geometry(geom_fine.domain.coarsen(r), geom_fine.prob_lo,
                         geom_fine.prob_hi, geom_fine.periodic)
    shifts = _shifts(geom_crse)
    coords_tmp = None
    if interp.needs_coords:
        coords_tmp = MultiFab(
            crse.ba, crse.dm, crse_coords.ncomp,
            crse.ngrow + IntVect.filled(crse.dim, interp.radius + 1), crse.comm)
        plan.coords = copy_plan(coords_tmp, crse_coords, crse_coords.ncomp, True)
        for fp in plan.coords.fabs.values():
            copy(coords_tmp.fab(fp.dst).data, crse_coords, fp.copies)
        grown_ba = [b.grow(coords_tmp.ngrow) for b in crse.ba]
    for i, fab in fine:
        pieces = [fab.box] if whole else boundary_regions(fine, i, geom_fine)
        rank, npoints, ncells, messages = fine.dm[i], 0, 0, []
        from_fab, from_cell, stencils, regions = [], [], [], []
        for piece in pieces:
            cregion = piece.coarsen(r).grow(interp.radius)
            fabs, cells = _patch_sources(crse, cregion, shifts, rank, messages)
            from_fab.append(fabs)
            from_cell.append(cells)
            npoints += cregion.num_pts()
            ccoords = None
            if coords_tmp is not None:
                ccoords = FArrayBox(cregion.grow(1), coords_tmp.ncomp)
                ccoords.data.fill(np.nan)
                for j, overlap in intersections(grown_ba, ccoords.box):
                    src = coords_tmp.fab(j).view(overlap)
                    ccoords.view(overlap)[...] = src
                    messages.append(crse.comm.message(
                        crse.dm[j], rank, src.nbytes, "parallelcopy"))
                _nearest_fill(ccoords.data)
                npoints += ccoords.box.num_pts()
            stencil = piece_stencil(
                interp, piece, r, cregion, ccoords,
                fine_coords.fab(i) if fine_coords is not None else None)
            if stencil is not None:
                stencils.append((stencil[0] + ncells, stencil[1]))
            else:
                regions.append((piece, cregion, ncells))
            ncells += cregion.num_pts()
        if not pieces:
            continue
        from_fab, from_cell = np.concatenate(from_fab), np.concatenate(from_cell)
        copies = []
        for j in np.unique(from_fab):
            at = np.nonzero(from_fab == j)[0]
            copies.append((int(j), np.unravel_index(
                from_cell[at], crse.fab(j).data.shape[1:]), (at,)))
        idx = w = dst = None
        if stencils:
            idx = np.concatenate([s[0] for s in stencils], axis=1)
            if stencils[0][1] is not None:
                w = np.concatenate([s[1] for s in stencils], axis=1)
            dst = np.unravel_index(
                np.concatenate([_cells(p, fab.grown_box()) for p in pieces]),
                fab.data.shape[1:])
        plan.fabs[i] = FillFabPlan(
            i, rank, copies, npoints, messages, ncells,
            sum(p.num_pts() for p in pieces), idx=idx, w=w, dst_cells=dst,
            regions=regions or None)
    return plan


def _patch_sources(crse: MultiFab, cregion: Box, shifts, rank: int,
                   messages: list):
    """Per cell of a scratch patch over ``cregion``, the coarse fab it
    copies from and the flat cell in that fab's array; appends the
    gather's ledger messages (one per coarse box met) to ``messages``."""
    shape = cregion.shape()
    fab_of = np.full(shape, -1)
    cell_of = np.zeros(shape, dtype=np.intp)
    for j, sbox, dbox in overlaps(crse.ba, cregion, shifts):
        at = dbox.slices(relative_to=cregion)
        fab_of[at] = j
        cell_of[at] = _cells(sbox, crse.fab(j).grown_box()).reshape(dbox.shape())
        messages.append(crse.comm.message(
            crse.dm[j], rank, dbox.num_pts() * crse.ncomp * 8, "parallelcopy"))
    if (fab_of < 0).all():
        raise ValueError(f"no coarse data available for region {cregion}")
    # an uncovered cell copies what its nearest covered cell copies
    near = np.where(fab_of < 0, np.nan,
                    np.arange(fab_of.size).reshape(shape))[None]
    _nearest_fill(near)
    near = near.ravel().astype(np.intp)
    return fab_of.ravel()[near], cell_of.ravel()[near]


def _cells(box: Box, within: Box) -> np.ndarray:
    """Flat indices, into an array over ``within``, of the cells of ``box``."""
    return np.arange(within.num_pts()).reshape(within.shape())[
        box.slices(relative_to=within)].ravel()


# -- the stencils, one piece at a time ---------------------------------------------

def _fine_fractions(fine_region: Box, ratio: IntVect, idim: int):
    """Per-axis base coarse index and fractional offset of fine cell centers."""
    r = ratio[idim]
    i_f = np.arange(fine_region.lo[idim], fine_region.hi[idim] + 1)
    center = (i_f + 0.5) / r - 0.5
    ibase = np.floor(center).astype(np.int64)
    frac = center - ibase
    return ibase, frac


def corner_indices(bases, box: Box) -> np.ndarray:
    """Flat indices into an array over ``box`` of every fine cell's coarse
    neighbours, ``(2^dim, nfine)``."""
    shape, first, steps = box.shape(), 0, []
    for d, ib in enumerate(bases):
        ib = ib - box.lo[d]
        if ib.min() < 0 or ib.max() + 1 >= shape[d]:
            raise ValueError("coarse fab does not cover interpolation stencil")
        step = math.prod(shape[d + 1:])
        first = first + (ib * step).reshape((-1,) + (1,) * (len(bases) - 1 - d))
        steps.append(step)
    ncorner = 1 << len(bases)
    to_corner = [sum(s for d, s in enumerate(steps) if (c >> d) & 1)
                 for c in range(ncorner)]
    return first.ravel() + np.array(to_corner)[:, None]


def piece_stencil(interp, fine_region: Box, ratio, cbox: Box,
                  crse_coords: Optional[FArrayBox] = None,
                  fine_coords: Optional[FArrayBox] = None):
    """``interp.stencil`` of one piece, as ``Interpolator.stencil`` was:
    ``(idx, w)`` over an array over ``cbox``, or None."""
    ratio = IntVect.coerce(ratio, fine_region.dim)
    dim = fine_region.dim
    if isinstance(interp, TrilinearInterp):
        return trilinear_stencil(fine_region, ratio, cbox)
    if not isinstance(interp, CurvilinearInterp):
        return None
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


def corner_index(bases, corner: int, box: Box) -> np.ndarray:
    """Flat index into an array over ``box`` of every fine cell's
    ``corner``-th neighbour (bit ``d`` of ``corner``: the upper one along
    axis ``d``), given the per-axis lower-neighbour indices ``bases``."""
    idx = []
    for d, ib in enumerate(bases):
        ib = ib + ((corner >> d) & 1) - box.lo[d]
        if ib.min() < 0 or ib.max() >= box.shape()[d]:
            raise ValueError("coarse fab does not cover interpolation stencil")
        idx.append(ib)
    return np.ravel_multi_index(np.ix_(*idx), box.shape()).ravel()


def trilinear_stencil(fine_region: Box, ratio, cbox: Box):
    """``TrilinearInterp.stencil`` of one piece, corner by corner."""
    ratio = IntVect.coerce(ratio, fine_region.dim)
    dim = fine_region.dim
    bases, fracs = zip(*(_fine_fractions(fine_region, ratio, d)
                         for d in range(dim)))
    idx, weights = [], []
    # the 2^dim corners with separable linear weights
    for corner in range(1 << dim):
        w = 1.0
        for d in range(dim):
            wd = fracs[d] if (corner >> d) & 1 else (1.0 - fracs[d])
            shape = [1] * dim
            shape[d] = -1
            w = w * wd.reshape(shape)
        idx.append(corner_index(bases, corner, cbox))
        weights.append(np.broadcast_to(w, fine_region.shape()).ravel())
    return np.array(idx), np.array(weights)
