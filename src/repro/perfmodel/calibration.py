"""Calibration constants for the Summit performance model.

Each constant is tied to a statement in the paper or a public hardware
number; EXPERIMENTS.md records how the resulting curves compare against
every figure.  Nothing here is fitted per-figure: the same constants feed
Figs. 3-7 simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.gpu import V100Model
from repro.machine.network import FatTreeModel
from repro.machine.node import Power9Model
from repro.machine.summit import SUMMIT, SummitSpec


@dataclass(frozen=True)
class Calibration:
    """All tunable constants of the performance model."""

    spec: SummitSpec = SUMMIT
    gpu: V100Model = field(default_factory=V100Model)
    cpu: Power9Model = field(default_factory=Power9Model)
    net: FatTreeModel = field(default_factory=FatTreeModel)

    #: AMR hierarchy shape for the DMR: fraction of the domain refined at
    #: the middle and finest levels.  Yields ~90% active-point reduction,
    #: inside the paper's quoted 89-94% range (Sec. V-C).
    band_fraction_mid: float = 0.14
    band_fraction_fine: float = 0.07

    #: refinement ratio and number of AMR levels (Fig. 2: three levels)
    ref_ratio: int = 2
    n_levels: int = 3

    #: ghost width of the numerics (paper: blocking factor >= ghosts = 8)
    nghost: int = 4
    blocking_factor: int = 8
    max_grid_size: int = 128

    #: conservative state components (5) and coordinate components (3)
    ncomp_state: int = 5
    ncomp_coords: int = 3

    #: regrid cadence in steps and fraction of fine patches replaced per
    #: regrid (feature convection between regrids)
    regrid_interval: int = 4
    regrid_churn: float = 0.3

    #: per-GPU resident-point budget implied by the paper's memory
    #: observations ("grid point counts beyond 2.0E5 spilled out of the
    #: 16GB"); used to flag configurations that would not fit
    max_points_per_gpu: float = 2.0e5
    target_points_per_gpu: float = 1.2e5

    #: CPU-side per-patch software overhead per kernel invocation [s]
    cpu_kernel_overhead: float = 5e-6

    #: fraction of a level's fine patches whose ghost regions touch a
    #: coarse/fine interface (sets the two-level interpolation volume)
    interface_fraction: float = 0.35

    #: cap on boxes per level (decomposition practicality; beyond this the
    #: grids are made coarser-grained and some ranks idle on that level)
    max_boxes_per_level: int = 32768

    #: ParallelCopy metadata/handshake cost per participating rank [s].
    #: AMReX's ParallelCopy computes global intersection metadata and posts
    #: dense nonblocking communication; its setup cost grows with the
    #: communicator size — the growth the paper isolates in Fig. 7
    #: (ParallelCopy_finish rising with node count).
    pc_meta_per_rank: float = 0.5e-6

    #: extra AMR software work per active point per RK stage
    #: (FillPatch pack/unpack, interpolation arithmetic, ghost
    #: bookkeeping).  On CPUs this poorly-vectorized work is a significant
    #: tax on the AMR versions — why the paper's AMR-over-uniform speedup
    #: is 4.6x instead of the naive ~9x — and is priced in flops; on GPUs
    #: the same copies ride the device bandwidth and are priced in bytes.
    amr_overhead_flops_per_point: float = 2600.0
    amr_overhead_bytes_per_point: float = 250.0


#: the default calibration used by all benches
CAL = Calibration()
