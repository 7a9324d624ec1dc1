"""Simulated GPU device: memory arena, launch records.

We have no physical GPU, so this module supplies the *behavioral* device
the GPU backend runs on:

- a global-memory arena with a hard capacity (16 GB on a Summit V100),
  charged with resident level state through ``ExecutionBackend.reserve``
  / ``release`` and with each launch's scratch while it runs
  (``LaunchSpec.scratch``), raising :class:`DeviceMemoryError` exactly
  where the real code would fault — the paper reports grid counts beyond
  2.0e5 points spilling V100 memory, which shaped both scaling studies;
- kernel-launch records (name, points, flops, bytes at each memory level)
  that feed the hierarchical roofline model of Fig. 4, kept as one
  multiset per device (:attr:`GpuDevice.table`): identical launches
  collapse into a count, so the table grows with the variety of box
  shapes, not with the step count, and every summary is a view of it; a
  run that records a trace also gets every launch as a span (its
  sequence) in the run's tracer;
- one launch helper, :meth:`GpuDevice.run`, that every
  ``amrex::ParallelFor``- and ``amrex::ReduceData``-style launch of the
  execution backend (:mod:`repro.backend`) goes through, priced there.

Arithmetic runs on the host NumPy arrays; only the accounting is
simulated.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, Iterable, NamedTuple, Optional

import numpy as np

from repro.kernels.counts import KernelBudget

#: Summit NVIDIA V100 device memory
V100_MEMORY_BYTES = 16 * 1024**3


class DeviceMemoryError(MemoryError):
    """Raised when a device allocation exceeds the arena capacity."""


class LaunchRecord(NamedTuple):
    """One recorded kernel launch: immutable and hashed at C speed, because
    one is counted per launch (each distinct one is priced once)."""

    name: str
    npoints: int
    flops: int
    dram_bytes: int
    l2_bytes: int
    l1_bytes: int
    #: coarse grouping for the run report (flux / update / fillpatch /
    #: interp / averagedown / tagging / reduction)
    kernel_class: str = "flux"

    @classmethod
    def priced(cls, name: str, npoints: int, budget: KernelBudget,
               kernel_class: str = "flux") -> "LaunchRecord":
        """The launch over ``npoints`` priced by ``budget`` per point: its
        ``l2``/``l1`` amplifications model how much more traffic a stencil
        kernel makes at the inner cache levels than at DRAM."""
        dram = int(npoints * budget.dram_bytes_per_point)
        return cls(name, npoints, int(npoints * budget.flops_per_point), dram,
                   int(dram * budget.l2_amplification),
                   int(dram * budget.l1_amplification), kernel_class)


class GpuDevice:
    """A simulated accelerator with bounded memory and launch accounting."""

    def __init__(self, name: str = "V100",
                 memory_bytes: int = V100_MEMORY_BYTES) -> None:
        self.name = name
        self.memory_bytes = memory_bytes
        self.bytes_in_use = 0
        self.high_water = 0
        #: ``Counter[LaunchRecord]``: how often each launch was recorded
        self.table: Counter = Counter()
        #: the run's tracer when it writes a trace, and the ``(rank,
        #: stream)`` track this device's kernel spans go on
        self.tracer = None
        self.trace_track = (0, 1)

    # -- memory -----------------------------------------------------------
    def _hold(self, nbytes: int) -> int:
        """Bytes in use with ``nbytes`` more, raising past the capacity;
        the high-water mark rises to it."""
        held = self.bytes_in_use + nbytes
        if held > self.memory_bytes:
            raise DeviceMemoryError(
                f"device {self.name}: {nbytes} bytes exceed capacity "
                f"({self.bytes_in_use}/{self.memory_bytes} in use)")
        self.high_water = max(self.high_water, held)
        return held

    def _allocate(self, nbytes: int) -> None:
        self.bytes_in_use = self._hold(nbytes)

    def _release(self, nbytes: int) -> None:
        if nbytes > self.bytes_in_use:
            raise RuntimeError("device arena double free")
        self.bytes_in_use -= nbytes

    # -- launches ----------------------------------------------------------
    def run(self, rec: LaunchRecord, fn: Callable[[], Optional[np.ndarray]],
            scratch: int = 0):
        """Run ``fn`` as one recorded kernel launch that ``rec`` prices,
        holding ``scratch`` bytes while it runs (refused before ``fn``
        runs if they do not fit): the one place a launch is counted and
        its trace span written (after the timed window: observability
        never inflates charged kernel wall time)."""
        if scratch:
            self._hold(scratch)
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        self.table[rec] += 1
        if self.tracer is not None:
            self._span(rec, t0, elapsed)
        return result

    def _span(self, rec: LaunchRecord, t0: float, seconds: float) -> None:
        tracer = self.tracer
        tracer.complete(rec.name, tracer.at_us(t0), seconds * 1e6,
                        *self.trace_track, cat="kernel",
                        args={"points": rec.npoints,
                              "class": rec.kernel_class})

    def __repr__(self) -> str:
        return (
            f"GpuDevice({self.name}, {self.bytes_in_use}/{self.memory_bytes} B, "
            f"{self.table.total()} launches)"
        )


#: what :func:`launch_totals` sums per group; the per-class view
#: (``class_totals()``, the ``device.class.*`` gauges) is the first four
TOTAL_FIELDS = ("launches", "points", "flops", "dram_bytes", "l2_bytes",
                "l1_bytes")


def launch_totals(devices: Iterable[GpuDevice],
                  by: str = "name") -> Dict[str, Dict[str, int]]:
    """Launch totals over ``devices``, grouped by a record attribute
    (kernel ``name`` or ``kernel_class``): ``{group: {field: sum}}`` for
    each of :data:`TOTAL_FIELDS`."""
    out: Dict[str, Dict[str, int]] = {}
    for dev in devices:
        for rec, n in dev.table.items():
            tot = out.setdefault(getattr(rec, by),
                                 dict.fromkeys(TOTAL_FIELDS, 0))
            tot["launches"] += n
            tot["points"] += rec.npoints * n
            tot["flops"] += rec.flops * n
            tot["dram_bytes"] += rec.dram_bytes * n
            tot["l2_bytes"] += rec.l2_bytes * n
            tot["l1_bytes"] += rec.l1_bytes * n
    return out
