"""AmrCore: the multi-level grid hierarchy with dynamic regridding.

Mirrors ``amrex::AmrCore``: owns per-level Geometry / BoxArray /
DistributionMapping, and drives regridding (error estimation ->
Berger-Rigoutsos clustering -> level creation/remake/clear) through
callbacks supplied by the application, exactly the hooks CRoCCo implements
(`MakeNewLevelFromScratch`, `MakeNewLevelFromCoarse`, `RemakeLevel`,
`ClearLevel`, `ErrorEst`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.amr.boxarray import BoxArray, by_lo, disjoint, grow, subtract
from repro.amr.cluster import buffer_tags, cluster_tags
from repro.amr.distribution import DistributionMapping
from repro.amr.geometry import Geometry
from repro.amr.intvect import IntVect
from repro.mpi.comm import Communicator
from repro.profiling.tinyprofiler import TinyProfiler


@dataclass
class AmrConfig:
    """AMR input-deck parameters (names follow the AMReX input deck).

    The paper's hand-tuned values: ``blocking_factor=8`` (at least the
    ghost width of the numerics), ``max_grid_size=128``.
    """

    max_level: int = 0
    ref_ratio: int = 2
    blocking_factor: int = 8
    max_grid_size: int = 128
    grid_eff: float = 0.7
    n_error_buf: int = 1
    regrid_int: int = 2
    strategy: str = "sfc"
    #: proper-nesting buffer: level l+1 grids must keep this many level-l
    #: cells between themselves and any region level l does not cover, so
    #: fine ghost shells and their interpolation stencils always find
    #: coarse data (except at physical boundaries)
    n_proper: int = 5

    def __post_init__(self) -> None:
        if self.max_level < 0:
            raise ValueError("max_level must be >= 0")
        if self.ref_ratio < 2:
            raise ValueError("ref_ratio must be >= 2")
        if self.max_grid_size % self.blocking_factor != 0:
            raise ValueError("max_grid_size must be divisible by blocking_factor")


class AmrCore:
    """Level hierarchy manager.

    Applications subclass (or register callbacks on) this class; the CRoCCo
    driver in :mod:`repro.core.crocco` does the former.
    """

    def __init__(
        self,
        geom0: Geometry,
        config: AmrConfig,
        comm: Optional[Communicator] = None,
    ) -> None:
        self.amr_config = config
        self.comm = comm if comm is not None else Communicator(1, 1)
        self.geoms: List[Geometry] = [geom0]
        for lev in range(1, config.max_level + 1):
            self.geoms.append(self.geoms[-1].refine(config.ref_ratio))
        self.box_arrays: List[Optional[BoxArray]] = [None] * (config.max_level + 1)
        self.dmaps: List[Optional[DistributionMapping]] = [None] * (config.max_level + 1)
        self.finest_level = -1
        #: times the regrid's Cluster phase (the application's hooks theirs)
        self.profiler = TinyProfiler()

    # -- application hooks (override in subclass) ------------------------------
    def make_new_level_from_scratch(self, lev: int, ba: BoxArray,
                                    dm: DistributionMapping) -> None:
        raise NotImplementedError

    def make_new_level_from_coarse(self, lev: int, ba: BoxArray,
                                   dm: DistributionMapping) -> None:
        raise NotImplementedError

    def remake_level(self, lev: int, ba: BoxArray, dm: DistributionMapping) -> None:
        raise NotImplementedError

    def clear_level(self, lev: int) -> None:
        raise NotImplementedError

    def error_est(self, lev: int) -> np.ndarray:
        """Return an (n, dim) array of tagged cell indices on level ``lev``."""
        raise NotImplementedError

    # -- hierarchy construction ------------------------------------------------
    def ref_ratio_iv(self) -> IntVect:
        return IntVect.filled(self.geoms[0].dim, self.amr_config.ref_ratio)

    def init_from_scratch(self) -> None:
        """Build level 0 over the whole domain, then finer levels from tags."""
        cfg = self.amr_config
        ba0 = BoxArray.from_domain(
            self.geoms[0].domain, cfg.max_grid_size, cfg.blocking_factor
        )
        dm0 = DistributionMapping.make(ba0, self.comm.nranks, cfg.strategy)
        self.box_arrays[0] = ba0
        self.dmaps[0] = dm0
        self.finest_level = 0
        self.make_new_level_from_scratch(0, ba0, dm0)
        # grow finer levels one at a time from initial-condition tags
        for lev in range(cfg.max_level):
            ba = self._grids_from_tags(lev)
            if ba is None or len(ba) == 0:
                break
            dm = DistributionMapping.make(ba, self.comm.nranks, cfg.strategy)
            self.box_arrays[lev + 1] = ba
            self.dmaps[lev + 1] = dm
            self.finest_level = lev + 1
            self.make_new_level_from_coarse(lev + 1, ba, dm)

    def regrid(self, base_lev: int = 0) -> bool:
        """Re-tag and re-cluster levels above ``base_lev``; returns True if changed."""
        cfg = self.amr_config
        changed = False
        for lev in range(base_lev, cfg.max_level):
            if lev > self.finest_level:
                break
            new_ba = self._grids_from_tags(lev)
            if new_ba is None or len(new_ba) == 0:
                # drop the finer level entirely if it exists
                if lev + 1 <= self.finest_level:
                    for l in range(self.finest_level, lev, -1):
                        self.clear_level(l)
                        self.box_arrays[l] = None
                        self.dmaps[l] = None
                    self.finest_level = lev
                    changed = True
                break
            if new_ba == self.box_arrays[lev + 1]:
                continue
            with self.profiler.region("Cluster"):
                dm = DistributionMapping.make(new_ba, self.comm.nranks, cfg.strategy)
            if lev + 1 <= self.finest_level:
                self.remake_level(lev + 1, new_ba, dm)
            else:
                self.make_new_level_from_coarse(lev + 1, new_ba, dm)
                self.finest_level = lev + 1
            self.box_arrays[lev + 1] = new_ba
            self.dmaps[lev + 1] = dm
            changed = True
        if changed:
            # regridding involves metadata exchange; account a broadcast of
            # the new box lists from the clustering root to every rank
            nboxes = sum(
                len(self.box_arrays[l] or [])
                for l in range(1, self.finest_level + 1)
            )
            meta_bytes = nboxes * 6 * 8  # lo/hi triples as int64
            for r in range(1, self.comm.nranks):
                self.comm.send_bytes(0, r, meta_bytes, "regrid")
        return changed

    def _grids_from_tags(self, lev: int) -> Optional[BoxArray]:
        """Cluster level-``lev`` tags into the level ``lev+1`` BoxArray."""
        cfg = self.amr_config
        tags = self.error_est(lev)
        if tags is None or len(tags) == 0:
            return BoxArray([])
        with self.profiler.region("Cluster"):
            # cluster in level-lev index space with constraints expressed there
            domain, r = self.geoms[lev].domain, cfg.ref_ratio
            bf_c = max(1, cfg.blocking_factor // r)
            ba_c = cluster_tags(buffer_tags(tags, cfg.n_error_buf, domain),
                                domain, grid_eff=cfg.grid_eff,
                                blocking_factor=bf_c,
                                max_grid_size=max(bf_c, cfg.max_grid_size // r))
            if lev > 0:
                ba_c = self._clip_to_coverage(ba_c, lev)
            return ba_c.refine(self.ref_ratio_iv())

    def _clip_to_coverage(self, ba_c: BoxArray, lev: int) -> BoxArray:
        """Proper nesting: keep new grids ``n_proper`` cells inside level
        ``lev``'s coverage (measured from any uncovered region inside the
        domain; the physical boundary needs no buffer)."""
        cov = self.box_arrays[lev]
        assert cov is not None
        # uncovered regions of the level-lev domain, grown by the buffer
        forbidden = grow(cov.complement(self.geoms[lev].domain)[0],
                         self.amr_config.n_proper)
        # what the level covers of each new grid, outside every buffer,
        # and of that what no earlier piece already holds
        pieces = subtract(cov.intersect(ba_c.lohi)[2], forbidden)
        return BoxArray(by_lo(disjoint(pieces)))

    # -- bookkeeping ---------------------------------------------------------
    def num_active_pts(self) -> int:
        """Active (valid) cells summed over levels — the AMR working set."""
        return sum(
            (self.box_arrays[l].num_pts() if self.box_arrays[l] else 0)
            for l in range(self.finest_level + 1)
        )

    def equivalent_uniform_pts(self) -> int:
        """Cells of a uniform grid at the finest level's resolution.

        The paper's Table I reports "equivalent grid points" in this sense
        and quotes 89-94% savings of actual vs equivalent points.
        """
        return self.geoms[self.finest_level].domain.num_pts()

    def amr_savings(self) -> float:
        """Fraction of grid points saved vs the equivalent uniform grid."""
        equiv = self.equivalent_uniform_pts()
        if equiv == 0:
            return 0.0
        return 1.0 - self.num_active_pts() / equiv


def optimal_regrid_interval(min_patch_cells: int, cfl: float,
                            n_error_buf: int = 1) -> int:
    """Regrid-frequency estimate from the paper (Sec. II-B).

    Information travels at most ``cfl`` cells per step; regrid before a
    feature can convect from a patch interior across a fine/coarse
    interface, i.e. roughly every ``(half patch width - buffer) / cfl``
    steps (at least 1).
    """
    if cfl <= 0:
        raise ValueError("cfl must be positive")
    travel = max(1.0, min_patch_cells / 2.0 - n_error_buf)
    return max(1, int(math.floor(travel / cfl)))
