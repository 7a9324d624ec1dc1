"""Hierarchical roofline analysis (Yang, Kurth & Williams).

Reproduces Fig. 4 of the paper: for a kernel's flop count and its byte
traffic at L1, L2 and DRAM, compute the arithmetic intensity at each level
and place the achieved performance against the bandwidth ceilings and the
(occupancy-limited) compute ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.kernels.counts import KernelBudget
from repro.machine.gpu import V100Model


@dataclass(frozen=True)
class RooflinePoint:
    """One kernel's position on the hierarchical roofline."""

    kernel: str
    flops: int
    achieved_flops_per_s: float
    ai: Dict[str, float]  # arithmetic intensity per memory level
    ceilings: Dict[str, float]  # bandwidth ceilings (flop/s at each AI)
    peak_flops: float
    occupancy: float
    bound_level: str

    @property
    def fraction_of_peak(self) -> float:
        return self.achieved_flops_per_s / self.peak_flops

    def is_bandwidth_bound(self) -> bool:
        return self.bound_level != "compute"


def hierarchical_roofline(
    budget: KernelBudget, device: V100Model = V100Model()
) -> RooflinePoint:
    """Roofline placement of one kernel on the V100 model."""
    ai = {
        "L1": budget.flops_per_point
        / (budget.dram_bytes_per_point * budget.l1_amplification),
        "L2": budget.flops_per_point
        / (budget.dram_bytes_per_point * budget.l2_amplification),
        "DRAM": budget.flops_per_point / budget.dram_bytes_per_point,
    }
    occ = device.theoretical_occupancy(budget.registers_per_thread)
    bw_frac = device.effective_bandwidth_fraction(occ)
    bws = {"L1": device.l1_bandwidth, "L2": device.l2_bandwidth,
           "DRAM": device.hbm_bandwidth}
    ceilings = {lvl: ai[lvl] * bws[lvl] * bw_frac for lvl in ai}
    achieved = device.achieved_flops(budget)
    return RooflinePoint(
        kernel=budget.name,
        flops=int(budget.flops_per_point),
        achieved_flops_per_s=achieved,
        ai=ai,
        ceilings=ceilings,
        peak_flops=device.peak_dp_flops,
        occupancy=occ,
        bound_level=device.bound_level(budget),
    )
