"""Per-iteration time simulation of one CRoCCo configuration on Summit.

Combines the decomposition metadata (exact per-rank loads and
box-intersection message volumes) with the machine models to produce a
per-region time breakdown of one solver iteration — the same regions the
paper profiles with TinyProfiler (Fig. 6: FillPatch / Advance / Regrid /
ComputeDt / AverageDown) and the FillPatch internals of Fig. 7
(FillBoundary vs ParallelCopy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.core.versions import VersionConfig, get_version
from repro.kernels.counts import (
    COMPUTEDT_BUDGET,
    UPDATE_BUDGET,
    VISCOUS_BUDGET,
    WENO_BUDGET,
)
from repro.numerics.rk3 import NSTAGES
from repro.perfmodel.calibration import CAL, Calibration
from repro.perfmodel.decomposition import (
    LevelDecomposition,
    averagedown_volumes,
    coarse_fine_volumes,
)


@dataclass
class IterationBreakdown:
    """Seconds per iteration attributed to each profiled region."""

    advance: float = 0.0
    fillboundary: float = 0.0
    parallelcopy: float = 0.0
    computedt: float = 0.0
    averagedown: float = 0.0
    regrid: float = 0.0
    #: True when the per-GPU resident points exceed the V100 budget
    exceeds_gpu_memory: bool = False

    @property
    def fillpatch(self) -> float:
        """The paper's FillPatch region: boundary exchange + global copies."""
        return self.fillboundary + self.parallelcopy

    @property
    def total(self) -> float:
        return (self.advance + self.fillpatch + self.computedt
                + self.averagedown + self.regrid)

    def as_dict(self) -> Dict[str, float]:
        return {
            "Advance": self.advance,
            "FillPatch": self.fillpatch,
            "FillBoundary": self.fillboundary,
            "ParallelCopy": self.parallelcopy,
            "ComputeDt": self.computedt,
            "AverageDown": self.averagedown,
            "Regrid": self.regrid,
            "total": self.total,
        }


def _gpu_compute_time(levels: Sequence[LevelDecomposition], cal: Calibration,
                      include_viscous: bool) -> float:
    """Per-stage kernel time of the busiest GPU (sum over levels)."""
    gpu = cal.gpu
    total = 0.0
    budgets = [WENO_BUDGET] * 3 + ([VISCOUS_BUDGET] if include_viscous else [])
    budgets.append(UPDATE_BUDGET)
    for lev in levels:
        pts, ranks = lev.box_pts_and_ranks()
        # kernel_time is nonlinear in box size (launch overhead +
        # utilization); vectorize over the distinct box sizes
        per_box = np.zeros(len(pts))
        for size in np.unique(pts):
            t = sum(gpu.kernel_time(bud, int(size)) for bud in budgets)
            per_box[pts == size] = t
        per_rank = np.zeros(lev.nranks)
        np.add.at(per_rank, ranks, per_box)
        total += float(per_rank.max())
    return total


def _cpu_compute_time(levels: Sequence[LevelDecomposition], cal: Calibration,
                      lang: str, include_viscous: bool) -> float:
    """Per-stage kernel time of the busiest CPU rank (one core per rank)."""
    cpu = cal.cpu
    budgets = [WENO_BUDGET] * 3 + ([VISCOUS_BUDGET] if include_viscous else [])
    budgets.append(UPDATE_BUDGET)
    total = 0.0
    for lev in levels:
        loads = lev.per_rank_pts().astype(np.float64)
        boxes = lev.boxes_per_rank().astype(np.float64)
        per_rank = sum(
            loads * bud.flops_per_point for bud in budgets
        ) / (cpu.sustained_flops / cpu.cores)
        if lang == "cpp":
            per_rank = per_rank * cpu.cpp_slowdown
        per_rank = per_rank + boxes * len(budgets) * cal.cpu_kernel_overhead
        total += float(per_rank.max())
    return total


def simulate_iteration(
    version: str | VersionConfig,
    levels: Sequence[LevelDecomposition],
    nodes: int,
    cal: Calibration = CAL,
    include_viscous: bool = True,
) -> IterationBreakdown:
    """Model one solver iteration (3 RK stages + bookkeeping)."""
    v = get_version(version) if isinstance(version, str) else version
    net = cal.net
    out = IterationBreakdown()
    nranks = levels[0].nranks
    rpn = max(1, nranks // max(1, nodes))
    ratio = cal.ref_ratio

    # -- compute (Advance) per stage -----------------------------------------
    if v.on_gpu:
        stage_compute = _gpu_compute_time(levels, cal, include_viscous)
        # per-GPU memory check against the paper's point budget
        max_pts = max(float(lev.per_rank_pts().max()) for lev in levels)
        out.exceeds_gpu_memory = max_pts > cal.max_points_per_gpu
    else:
        stage_compute = _cpu_compute_time(levels, cal, v.ordering, include_viscous)
    if v.amr:
        # AMR software tax (FillPatch pack/unpack, interpolation arithmetic,
        # ghost bookkeeping) per active point per stage
        max_pts = max(float(lev.per_rank_pts().max()) for lev in levels)
        if v.on_gpu:
            hbm_eff = cal.gpu.hbm_bandwidth * cal.gpu.bw_ceiling_fraction
            stage_compute += max_pts * cal.amr_overhead_bytes_per_point / hbm_eff
        else:
            stage_compute += max_pts * cal.amr_overhead_flops_per_point / (
                cal.cpu.sustained_flops / cal.cpu.cores
            ) * (cal.cpu.cpp_slowdown if v.ordering == "cpp" else 1.0)
    out.advance = NSTAGES * stage_compute

    # -- FillPatch per stage per level --------------------------------------
    # ParallelCopy moves its *data* between (mostly neighboring) patch
    # owners, but its metadata/handshake phase is global: every rank takes
    # part in the intersection exchange, a cost growing with communicator
    # size.  That growth is exactly what Fig. 7 isolates as
    # ParallelCopy_finish rising across the weak-scaling series.
    pc_meta = cal.pc_meta_per_rank * nranks + net.barrier_time(nranks)
    fb_time = 0.0
    pc_time = 0.0
    for li, lev in enumerate(levels):
        vols = lev.fillboundary_volumes_cached(cal.ncomp_state, cal.nghost, rpn)
        fb_time += net.p2p_time(
            float(vols.off_node_recv.max()),
            float(vols.on_node_recv.max()),
            int(vols.messages.max()),
            nodes,
        )
        if li > 0:
            # two-level interpolation gather (ParallelCopy inside FillPatch)
            max_rank, total = coarse_fine_volumes(
                lev, levels[li - 1], cal.ncomp_state, cal.nghost, ratio,
                cal.interface_fraction,
            )
            pc_time += net.p2p_time(max_rank * 0.7, max_rank * 0.3, 16, nodes)
            pc_time += pc_meta
            if v.uses_global_parallelcopy:
                # the custom curvilinear interpolator first copies the whole
                # coarse coordinates MultiFab into a temporary with extra
                # ghost cells: valid data is a local copy, the ghost shell
                # moves between owners, and a second metadata phase is paid
                crse = levels[li - 1]
                shell_factor = _ghost_inflation(crse, cal) - 1.0
                per_rank = crse.per_rank_pts().astype(float)
                max_rank_c = float(per_rank.max()) * shell_factor \
                    * cal.ncomp_coords * 8.0
                pc_time += net.p2p_time(max_rank_c * 0.7, max_rank_c * 0.3,
                                        26, nodes)
                pc_time += pc_meta
    out.fillboundary = NSTAGES * fb_time
    out.parallelcopy = NSTAGES * pc_time

    # -- ComputeDt ----------------------------------------------------------
    scan_pts = max(float(lev.per_rank_pts().max()) for lev in levels)
    if v.on_gpu:
        scan = cal.gpu.kernel_time(COMPUTEDT_BUDGET, int(scan_pts)) * len(levels)
    else:
        scan = scan_pts * COMPUTEDT_BUDGET.flops_per_point / (
            cal.cpu.sustained_flops / cal.cpu.cores
        )
    out.computedt = scan + net.reduction_time(nranks)

    # -- AverageDown (last stage only) ------------------------------------
    for li in range(1, len(levels)):
        max_rank, total = averagedown_volumes(levels[li], cal.ncomp_state, ratio)
        out.averagedown += net.p2p_time(max_rank * 0.5, max_rank * 0.5,
                                        8, nodes)

    # -- Regrid (amortized over the regrid interval) -----------------------
    if v.amr and len(levels) > 1:
        nboxes = sum(lev.num_boxes() for lev in levels[1:])
        meta = nboxes * 6 * 8 * math.ceil(math.log2(max(2, nranks)))
        regrid_t = meta / cal.net.spec.node_injection_bw \
            + net.barrier_time(nranks) * 4
        for li in range(1, len(levels)):
            churn_bytes = (levels[li].num_pts() * cal.regrid_churn
                           * cal.ncomp_state * 8.0)
            max_rank = float(levels[li].per_rank_pts().max()) * cal.regrid_churn \
                * cal.ncomp_state * 8.0
            regrid_t += net.global_copy_time(max_rank, churn_bytes, nodes, nranks)
        out.regrid = regrid_t / cal.regrid_interval
    return out


def _ghost_inflation(lev: LevelDecomposition, cal: Calibration) -> float:
    """Volume inflation factor of growing this level's boxes by the
    interpolation ghost width (the temporary coordinates MultiFab)."""
    pts, _ = lev.box_pts_and_ranks()
    side = float(np.cbrt(pts.mean()))
    g = cal.nghost + 2
    return (side + 2 * g) ** 3 / side**3


def fillpatch_split(
    version: str | VersionConfig,
    levels: Sequence[LevelDecomposition],
    nodes: int,
    cal: Calibration = CAL,
) -> Dict[str, float]:
    """Fig. 7's FillPatch decomposition: {FillBoundary, ParallelCopy} x
    {nowait, finish} seconds per iteration.

    The ``_nowait`` share is the posting cost (per-message software
    overhead and handshake latency, paid when the nonblocking operation is
    issued); the ``_finish`` share is the completion cost (volume transfer
    and, for ParallelCopy, the global metadata wait) — the part the paper
    observes growing with node count.
    """
    v = get_version(version) if isinstance(version, str) else version
    net = cal.net
    nranks = levels[0].nranks
    rpn = max(1, nranks // max(1, nodes))
    ratio = cal.ref_ratio
    pc_meta = cal.pc_meta_per_rank * nranks + net.barrier_time(nranks)

    fb_nowait = fb_finish = pc_nowait = pc_finish = 0.0
    for li, lev in enumerate(levels):
        vols = lev.fillboundary_volumes_cached(cal.ncomp_state, cal.nghost, rpn)
        msgs = int(vols.messages.max())
        fb_nowait += msgs * net.message_overhead
        fb_finish += net.p2p_time(
            float(vols.off_node_recv.max()), float(vols.on_node_recv.max()),
            0, nodes,
        )
        if li > 0:
            max_rank, _total = coarse_fine_volumes(
                lev, levels[li - 1], cal.ncomp_state, cal.nghost, ratio,
                cal.interface_fraction,
            )
            pc_nowait += 16 * net.message_overhead
            pc_finish += net.p2p_time(max_rank * 0.7, max_rank * 0.3, 0, nodes)
            pc_finish += pc_meta
            if v.uses_global_parallelcopy:
                crse = levels[li - 1]
                shell_factor = _ghost_inflation(crse, cal) - 1.0
                max_rank_c = float(crse.per_rank_pts().max()) * shell_factor \
                    * cal.ncomp_coords * 8.0
                pc_nowait += 26 * net.message_overhead
                pc_finish += net.p2p_time(max_rank_c * 0.7, max_rank_c * 0.3,
                                          0, nodes)
                pc_finish += pc_meta
    return {
        "FillBoundary_nowait": NSTAGES * fb_nowait,
        "FillBoundary_finish": NSTAGES * fb_finish,
        "ParallelCopy_nowait": NSTAGES * pc_nowait,
        "ParallelCopy_finish": NSTAGES * pc_finish,
    }
