"""Simulated GPU device: memory arena, launch records.

We have no physical GPU, so this module supplies the *behavioral* device
the GPU backend runs on:

- a global-memory arena with a hard capacity (16 GB on a Summit V100),
  charged with resident level state through ``ExecutionBackend.reserve``
  / ``release`` and with each launch's scratch while it runs
  (``LaunchSpec.scratch``), raising :class:`DeviceMemoryError` exactly
  where the real code would fault — the paper reports grid counts beyond
  2.0e5 points spilling V100 memory, which shaped both scaling studies;
- kernel-launch records — what ran: name, points, kernel class — kept
  as one multiset per device (:attr:`GpuDevice.table`): identical
  launches collapse into a count, so the table grows with the variety of
  box shapes, not with the step count; a run that records a trace also
  gets every launch as a span (its sequence) in the run's tracer;
- one launch helper, :meth:`GpuDevice.run`, that every
  ``amrex::ParallelFor``- and ``amrex::ReduceData``-style launch of the
  execution backend (:mod:`repro.backend`) goes through;
- one pricing view, :func:`launch_totals`: flops, bytes at each memory
  level (the hierarchical roofline of Fig. 4) and V100 seconds (Fig. 3)
  per kernel name or class, each distinct record priced by its name's
  budget.  Every cost of a run is a view of the tables.

Arithmetic runs on the host NumPy arrays; only the accounting is
simulated.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, Iterable, NamedTuple, Optional

import numpy as np

from repro.kernels.counts import budget_for_kernel
from repro.machine.gpu import V100Model

#: Summit NVIDIA V100 device memory
V100_MEMORY_BYTES = 16 * 1024**3


class DeviceMemoryError(MemoryError):
    """Raised when a device allocation exceeds the arena capacity."""


class LaunchRecord(NamedTuple):
    """One recorded kernel launch, what ran and nothing else: immutable and
    hashed at C speed, because one is counted per launch.  Its cost follows
    from its name (:func:`launch_totals`)."""

    name: str
    npoints: int
    #: coarse grouping for the run report (flux / update / fillpatch /
    #: interp / averagedown / tagging / reduction)
    kernel_class: str = "flux"


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
        """Run ``fn`` as the recorded kernel launch ``rec``, holding
        ``scratch`` bytes while it runs (refused before ``fn`` runs if they
        do not fit): the one place a launch is counted and, when a tracer
        is bound, timed and written as a span (after the timed window:
        observability never inflates charged kernel wall time)."""
        if scratch:
            self._hold(scratch)
        if self.tracer is None:
            result = fn()
        else:
            t0 = time.perf_counter()
            result = fn()
            self._span(rec, t0, time.perf_counter() - t0)
        self.table[rec] += 1
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
                "l1_bytes", "seconds")

_V100 = V100Model()


def launch_totals(devices: Iterable[GpuDevice],
                  by: str = "name") -> Dict[str, Dict[str, float]]:
    """Launch totals over ``devices``, grouped by a record attribute
    (kernel ``name`` or ``kernel_class``): ``{group: {field: sum}}`` for
    each of :data:`TOTAL_FIELDS`, plus ``registers``, the most registers
    per thread any of the group's launches uses (what bounds its
    occupancy on the roofline).

    The one place a launch is priced: each distinct record by
    :func:`~repro.kernels.counts.budget_for_kernel` of its name — flops
    and DRAM bytes per point, the ``l2``/``l1`` amplifications of the
    DRAM bytes (how much more traffic a stencil kernel makes at the inner
    cache levels), each rounded down per record — and by the V100 model's
    seconds for a launch of its size (``seconds``, a float)."""
    out: Dict[str, Dict[str, float]] = {}
    for dev in devices:
        for rec, n in dev.table.items():
            budget = budget_for_kernel(rec.name)
            npoints = rec.npoints
            dram = int(npoints * budget.dram_bytes_per_point)
            tot = out.setdefault(getattr(rec, by), dict.fromkeys(
                TOTAL_FIELDS + ("registers",), 0))
            tot["launches"] += n
            tot["points"] += npoints * n
            tot["flops"] += int(npoints * budget.flops_per_point) * n
            tot["dram_bytes"] += dram * n
            tot["l2_bytes"] += int(dram * budget.l2_amplification) * n
            tot["l1_bytes"] += int(dram * budget.l1_amplification) * n
            tot["seconds"] += _V100.kernel_time(budget, npoints) * n
            tot["registers"] = max(tot["registers"],
                                   budget.registers_per_thread)
    return out
