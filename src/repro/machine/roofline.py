"""Hierarchical roofline analysis (Yang, Kurth & Williams).

Reproduces Fig. 4 of the paper: for a kernel's flop count and its byte
traffic at L1, L2 and DRAM, compute the arithmetic intensity at each level
and place the achieved performance against the bandwidth ceilings and the
(occupancy-limited) compute ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.kernels.counts import KernelBudget, budget_for_kernel
from repro.kernels.device import GpuDevice, launch_totals
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


def roofline_from_launches(device_sim: GpuDevice, kernel: str,
                           wall_time: float,
                           device: V100Model = V100Model()) -> RooflinePoint:
    """Roofline point from a simulated device's recorded launches.

    ``wall_time`` is the (modeled or measured) time the launches took; the
    flop/byte totals come from the device's launch table, exactly as
    Nsight Compute derives them from hardware counters; the register
    count (occupancy) is the budget the launch name is priced by.
    """
    tot = launch_totals([device_sim]).get(kernel)
    flops = tot["flops"] if tot else 0
    if flops == 0 or wall_time <= 0:
        raise ValueError("no recorded flops or non-positive wall time")
    ai = {
        "L1": flops / tot["l1_bytes"],
        "L2": flops / tot["l2_bytes"],
        "DRAM": flops / tot["dram_bytes"],
    }
    occ = device.theoretical_occupancy(
        budget_for_kernel(kernel).registers_per_thread)
    bw_frac = device.effective_bandwidth_fraction(occ)
    bws = {"L1": device.l1_bandwidth, "L2": device.l2_bandwidth,
           "DRAM": device.hbm_bandwidth}
    ceilings = {lvl: ai[lvl] * bws[lvl] * bw_frac for lvl in ai}
    achieved = flops / wall_time
    bound = min(ceilings, key=ceilings.get)
    if device.peak_dp_flops * min(1.0, 2 * occ) < min(ceilings.values()):
        bound = "compute"
    return RooflinePoint(
        kernel=kernel,
        flops=flops,
        achieved_flops_per_s=achieved,
        ai=ai,
        ceilings=ceilings,
        peak_flops=device.peak_dp_flops,
        occupancy=occ,
        bound_level=bound,
    )
