"""Simulated wall time for a functional run's recorded GPU launches.

The functional layer records every kernel launch (name, points,
flop/byte budgets) on the simulated devices; this module prices those
records with the V100 model, giving per-kernel simulated seconds for a
*real* run — the bridge that lets a laptop-scale run report "what Summit
would have spent in WENOx" (the measurement behind Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.kernels.counts import budget_for_kernel
from repro.kernels.device import GpuDevice
from repro.machine.gpu import V100Model


@dataclass(frozen=True)
class DeviceTiming:
    """Per-kernel simulated seconds for one device's launch table."""

    seconds: Dict[str, float]
    launches: Dict[str, int]
    points: Dict[str, int]

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


def summarize_device(device: GpuDevice,
                     model: Optional[V100Model] = None) -> DeviceTiming:
    """Price every recorded launch on the V100 model."""
    m = model if model is not None else V100Model()
    seconds: Dict[str, float] = {}
    launches: Dict[str, int] = {}
    points: Dict[str, int] = {}
    for rec, n in device.table.items():
        t = m.kernel_time(budget_for_kernel(rec.name), rec.npoints)
        seconds[rec.name] = seconds.get(rec.name, 0.0) + t * n
        launches[rec.name] = launches.get(rec.name, 0) + n
        points[rec.name] = points.get(rec.name, 0) + rec.npoints * n
    return DeviceTiming(seconds, launches, points)


def summarize_fleet(devices: Sequence[GpuDevice],
                    model: Optional[V100Model] = None) -> Dict[str, DeviceTiming]:
    """Per-device timings for a multi-rank run (one entry per device)."""
    return {d.name: summarize_device(d, model) for d in devices}


def busiest_device_seconds(devices: Sequence[GpuDevice],
                           model: Optional[V100Model] = None) -> float:
    """The critical-path device time (the slowest simulated GPU)."""
    if not devices:
        return 0.0
    return max(summarize_device(d, model).total for d in devices)
