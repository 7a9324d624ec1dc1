"""Simulated wall time for a functional run's recorded GPU launches.

The functional layer records every kernel launch (name, points,
flop/byte budgets) on the simulated devices; this module prices those
records with the V100 model, giving per-kernel simulated seconds for a
*real* run — the bridge that lets a laptop-scale run report "what Summit
would have spent in WENOx" (the measurement behind Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.kernels.counts import budget_for_kernel
from repro.kernels.device import GpuDevice
from repro.machine.gpu import V100Model


@dataclass(frozen=True)
class DeviceTiming:
    """Per-kernel simulated seconds for one device's launch table."""

    seconds: Dict[str, float]
    launches: Dict[str, int]
    points: Dict[str, int]


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
