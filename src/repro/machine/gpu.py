"""NVIDIA V100 performance model.

Public device characteristics (Volta V100-SXM2-16GB, as on Summit) plus an
occupancy model reproducing the paper's observation (Sec. VI-A): register
pressure limits the CRoCCo kernels to 12.5% theoretical occupancy, which
in turn limits achievable memory bandwidth (a latency-bound device cannot
saturate HBM at low occupancy), leaving the kernels bandwidth-bound at
every memory level with ~300 DP Gflop/s (~4% of the 7.8 TF/s peak).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.kernels.counts import KernelBudget


@dataclass(frozen=True)
class V100Model:
    """Volta V100 (SXM2, 16 GB) characteristics and derived performance."""

    peak_dp_flops: float = 7.8e12
    hbm_bandwidth: float = 900e9
    l2_bandwidth: float = 4.2e12  # per Yang et al. hierarchical roofline
    l1_bandwidth: float = 14.0e12
    memory_bytes: int = 16 * 1024**3
    num_sms: int = 80
    registers_per_sm: int = 65536
    max_threads_per_sm: int = 2048
    threads_per_block: int = 256
    #: kernel launch overhead [s]
    launch_overhead: float = 8e-6
    #: fraction of peak bandwidth achievable at full occupancy
    bw_ceiling_fraction: float = 0.85
    #: occupancy needed to saturate bandwidth (latency hiding)
    bw_saturation_occupancy: float = 0.45

    # -- occupancy ------------------------------------------------------------
    def theoretical_occupancy(self, registers_per_thread: int) -> float:
        """Max warps resident / max warps, limited by the register file.

        255 registers/thread -> 65536 // 255 = 257 threads -> one 256-thread
        block -> 256 / 2048 = 12.5%, the paper's reported occupancy.
        """
        if registers_per_thread < 1:
            raise ValueError("registers_per_thread must be positive")
        max_threads = self.registers_per_sm // registers_per_thread
        # whole thread blocks only
        blocks = max_threads // self.threads_per_block
        resident = min(blocks * self.threads_per_block, self.max_threads_per_sm)
        return resident / self.max_threads_per_sm

    def effective_bandwidth_fraction(self, occupancy: float) -> float:
        """Achievable fraction of peak bandwidth at a given occupancy.

        Little's-law flavored: bandwidth rises ~linearly with resident
        warps until enough concurrency hides HBM latency, then saturates
        at ``bw_ceiling_fraction``.
        """
        if not 0.0 < occupancy <= 1.0:
            raise ValueError("occupancy must lie in (0, 1]")
        return self.bw_ceiling_fraction * min(
            1.0, occupancy / self.bw_saturation_occupancy
        )

    # -- kernel performance ----------------------------------------------
    @lru_cache(maxsize=None)  # a model and a budget are frozen: priced once
    def achieved_flops(self, budget: KernelBudget) -> float:
        """Sustained DP flop/s of a kernel (roofline minimum over levels)."""
        occ = self.theoretical_occupancy(budget.registers_per_thread)
        bw_frac = self.effective_bandwidth_fraction(occ)
        compute_ceiling = self.peak_dp_flops * min(1.0, 2.0 * occ)
        levels = {
            "DRAM": (budget.dram_bytes_per_point, self.hbm_bandwidth),
            "L2": (budget.dram_bytes_per_point * budget.l2_amplification,
                   self.l2_bandwidth),
            "L1": (budget.dram_bytes_per_point * budget.l1_amplification,
                   self.l1_bandwidth),
        }
        perf = compute_ceiling
        for bytes_pp, bw in levels.values():
            ai = budget.flops_per_point / bytes_pp
            perf = min(perf, ai * bw * bw_frac)
        return perf

    def bound_level(self, budget: KernelBudget) -> str:
        """Which ceiling binds: 'compute', 'DRAM', 'L2' or 'L1'."""
        occ = self.theoretical_occupancy(budget.registers_per_thread)
        bw_frac = self.effective_bandwidth_fraction(occ)
        candidates = {
            "compute": self.peak_dp_flops * min(1.0, 2.0 * occ),
            "DRAM": budget.flops_per_point / budget.dram_bytes_per_point
            * self.hbm_bandwidth * bw_frac,
            "L2": budget.flops_per_point
            / (budget.dram_bytes_per_point * budget.l2_amplification)
            * self.l2_bandwidth * bw_frac,
            "L1": budget.flops_per_point
            / (budget.dram_bytes_per_point * budget.l1_amplification)
            * self.l1_bandwidth * bw_frac,
        }
        return min(candidates, key=candidates.get)

    def utilization(self, npoints: int, saturation_points: float = 5e4) -> float:
        """Fraction of sustained throughput at a given working-set size.

        Small launches cannot fill the device ("GPUs are most efficient"
        at the largest sizes, Fig. 3): a saturating n/(n + n_half) law.
        """
        if npoints < 0:
            raise ValueError("npoints must be non-negative")
        return npoints / (npoints + saturation_points)

    def kernel_time(self, budget: KernelBudget, npoints: int,
                    precision: str = "double") -> float:
        """Wall time of one kernel launch over ``npoints`` grid points.

        ``precision='mixed'`` models the paper's future-work experiment:
        float32 arithmetic doubles the compute ceiling and halves the
        per-point memory traffic, roughly doubling a bandwidth-bound
        kernel's throughput.
        """
        if npoints == 0:
            return self.launch_overhead
        if precision == "mixed":
            from dataclasses import replace

            budget = replace(
                budget,
                dram_bytes_per_point=budget.dram_bytes_per_point / 2.0,
            )
        elif precision != "double":
            raise ValueError("precision must be 'double' or 'mixed'")
        sustained = self.achieved_flops(budget) * self.utilization(npoints)
        if precision == "mixed":
            # compute ceiling also doubles; only matters off the BW roof
            sustained = min(sustained * 1.0,
                            2.0 * self.achieved_flops(budget))
        return self.launch_overhead + npoints * budget.flops_per_point / sustained
