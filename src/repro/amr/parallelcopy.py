"""ParallelCopy: global redistribution between different box layouts.

``amrex::FabArray::ParallelCopy`` copies overlapping data between two
MultiFabs whose BoxArrays and DistributionMappings may differ entirely.
Unlike FillBoundary's neighbor-only traffic this is *global* communication
— in the paper it is the scaling bottleneck of the custom curvilinear
interpolator (CRoCCo 2.0 vs 2.1), because the coordinates MultiFab must be
copied into a temporary with more ghost cells at every FillPatch.
"""

from __future__ import annotations

from typing import Optional

from repro.amr.multifab import MultiFab
from repro.amr.plan import CommPlan, overlaps


def copy_plan(dst: MultiFab, src: MultiFab, ncomp: int, fill_ghosts: bool,
              src_comp: int = 0, dst_comp: int = 0) -> CommPlan:
    """Per destination fab, every overlap with ``src``'s valid regions."""
    return CommPlan.of_boxes(
        dst, src, "parallelcopy", "fillpatch", ncomp,
        overlaps(src.ba, dst.grown if fill_ghosts else dst.ba.lohi),
        src_comp, dst_comp)


def parallel_copy(
    dst: MultiFab,
    src: MultiFab,
    src_comp: int = 0,
    dst_comp: int = 0,
    ncomp: Optional[int] = None,
    fill_ghosts: bool = False,
) -> None:
    """Copy every overlap of ``src``'s valid regions into ``dst``.

    With ``fill_ghosts`` the destination region includes ghost cells
    (AMReX's ``ParallelCopy`` with ``ng_dst``), which is how the curvilinear
    interpolator obtains coordinates beyond patch edges.
    """
    if dst.dim != src.dim:
        raise ValueError("ParallelCopy dimension mismatch")
    nc = ncomp if ncomp is not None else min(dst.ncomp - dst_comp,
                                             src.ncomp - src_comp)
    if nc <= 0 or src_comp + nc > src.ncomp or dst_comp + nc > dst.ncomp:
        raise ValueError("component range out of bounds in ParallelCopy")
    plan = dst.plan(
        ("parallelcopy", src_comp, dst_comp, nc, fill_ghosts, src.ngrow.tup()),
        (src.ba, src.dm),
        lambda: copy_plan(dst, src, nc, fill_ghosts, src_comp, dst_comp))
    plan.run("PC_copy", lambda: plan.copy(dst.buffer, src.buffer))
