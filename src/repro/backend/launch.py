"""Execution backends: the ParallelFor/ReduceData launch seam.

CRoCCo 2.0's port puts *every* kernel — flux sweeps, FillBoundary
pack/unpack, ParallelCopy, interpolation, AverageDown, tagging, the
ComputeDt reduction — behind the AMReX GPU API (``launch`` /
``ParallelFor`` / ``ReduceData``), which is exactly what makes the
device-side accounting of the paper's evaluation complete.  This module
hoists that seam out of :mod:`repro.kernels.device` into a shared layer
both the kernel layer and the AMR substrate launch through.

**Three targets, one table.**  :data:`TARGETS` maps each target name to
its class, and :func:`make_exec_backend` looks the name up there:

``host``
    Plain NumPy: :meth:`~ExecutionBackend.parallel_for` runs the body
    directly and :meth:`~ExecutionBackend.reduce_data` is a NumPy
    reduction.  No accounting, no records — the v1.x CPU path.

``device``
    The same arithmetic executed as recorded launches on simulated
    :class:`~repro.kernels.device.GpuDevice` instances (arena accounting,
    launch records, flop/byte budgets).  Because the body is identical,
    host and device targets are *bitwise* identical; only the accounting
    differs — the v2.0/2.1 default.

``fused``
    The ``device`` target with a fused launch stream: the RK right-hand
    side (:class:`~repro.kernels.api.KernelSet`) runs the per-direction
    WENO sweeps — the same compiled call each — inside one wide
    ``WENOxy`` / ``WENOxyz`` launch.  Accounting matches the device
    target and the results are bitwise host's.

**One scratch cache per backend.**  Every backend instance — ``host``
included — owns a role-keyed :class:`ScratchCache`; the WENO sweep of
every target takes its intermediates from it (the allocation pattern the
paper's port reaches by hoisting scratch out of the kernels, Sec. IV-B),
and :meth:`ExecutionBackend.scratch_stats` reports its hit rate.

**A launch is a name, a class and a rank.**  Every target accepts
``parallel_for(name, fn, npoints, spec)`` / ``reduce_data(name, values,
op, spec)`` with a :class:`LaunchSpec`, and nothing else.  An accounting
target prices a launch from its name alone, by
:func:`~repro.kernels.counts.budget_for_kernel`, once per distinct
``(name, npoints, kernel class)``: a repeated launch is a dict hit that
counts its first's record again; a reduction is recorded as one flop and
one 8-byte word per value
(:meth:`~repro.kernels.device.GpuDevice.reduce`).

**Simulated devices belong to the accounting targets.**  A launch names
the issuing rank (``spec.rank``); the target maps it to that rank's
:class:`~repro.kernels.device.GpuDevice`.  Device *memory* is accounted
through the same seam: :meth:`ExecutionBackend.reserve` /
:meth:`~ExecutionBackend.release` charge bytes (kernel scratch, resident
level state) to the rank's device arena and are no-ops on ``host``, so a
run has devices, launches, scratch and residency exactly when its target
accounts.

A module-level current backend (default: host) lets deep call sites —
the AMR substrate has no reference to the driver — resolve their target
with :func:`current_backend`; the driver activates its configured
backend around each step with :func:`use_backend`.  Launch accounting
lives in one place, the devices' launch tables: per-class totals are a
view of them.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.backend.scratch import ScratchCache

_REDUCE_OPS = {"min": np.min, "max": np.max, "sum": np.sum}


def reduce_values(values, op: str) -> float:
    """``op`` over ``values``: the arithmetic of every target's
    ``ReduceData`` (``GpuDevice.reduce`` included)."""
    if op not in _REDUCE_OPS:
        raise ValueError(f"unknown reduction op {op!r}")
    return float(_REDUCE_OPS[op](values))


# -- the launch contract -----------------------------------------------------

@dataclass(frozen=True)
class LaunchSpec:
    """What ``parallel_for`` / ``reduce_data`` take besides the name.

    ``kernel_class``
        Coarse accounting group: ``flux``, ``update``, ``fillpatch``,
        ``interp``, ``averagedown``, ``tagging`` or ``reduction``.
    ``rank``
        The simulated MPI rank issuing the launch; accounting targets
        map it to that rank's device (Summit: one V100 per rank).
    """

    kernel_class: str = "flux"
    rank: int = 0


_FLUX_SPEC = LaunchSpec(kernel_class="flux")
_REDUCTION_SPEC = LaunchSpec(kernel_class="reduction")


class ExecutionBackend:
    """Launch primitives shared by the kernel layer and the AMR substrate.

    ``parallel_for(name, fn, npoints, spec)`` runs ``fn`` as one logical
    device launch over ``npoints`` grid points; ``reduce_data`` is the
    ``amrex::ReduceData`` analogue.  Targets implement :meth:`_launch` /
    :meth:`_reduce` and decide whether anything is recorded.
    """

    target = "abstract"

    #: targets that fuse kernel launches set this; :class:`KernelSet`
    #: checks it to route the RK right-hand side through the fused sweep
    fuses_kernels = False

    #: the simulated devices launches and memory are accounted on, one
    #: per rank — empty on targets that do not account
    devices: Sequence[object] = ()

    def __init__(self, devices: Optional[List[object]] = None) -> None:
        # ``devices`` is taken by every target and kept by those that
        # account (DeviceBackend)
        #: kernel intermediates, reused across launches, stages and steps
        self.scratch = ScratchCache()

    def parallel_for(self, name: str, fn: Callable, npoints: int,
                     spec: Optional[LaunchSpec] = None):
        return self._launch(name, fn, npoints, spec or _FLUX_SPEC)

    def reduce_data(self, name: str, values, op: str = "min",
                    spec: Optional[LaunchSpec] = None,
                    npoints: int = 0) -> Optional[float]:
        """``op`` over ``values``; ``values=None`` records a reduction over
        ``npoints`` values whose result was taken elsewhere, with an empty
        body (as the other owners' launches of a batch), and returns
        ``None``."""
        return self._reduce(name, values, op, spec or _REDUCTION_SPEC,
                            npoints)

    # -- device memory (accounting targets only; a no-op on host) ----------
    def reserve(self, nbytes: int, rank: int = 0) -> None:
        """Charge ``nbytes`` of device global memory to ``rank``'s device.

        The one memory primitive: kernel scratch (reserved from the host
        before launch, Sec. IV-B) and resident level state both go
        through it; accounting targets raise
        :class:`~repro.kernels.device.DeviceMemoryError` past the device
        capacity.  Pair with :meth:`release`.
        """

    def release(self, nbytes: int, rank: int = 0) -> None:
        """Return ``nbytes`` reserved on ``rank``'s device."""

    # -- target hooks ------------------------------------------------------
    def _launch(self, name: str, fn: Callable, npoints: int,
                spec: LaunchSpec):
        raise NotImplementedError

    def _reduce(self, name: str, values, op: str, spec: LaunchSpec,
                npoints: int) -> Optional[float]:
        raise NotImplementedError

    # -- accounting (accounting targets only; host returns empties) --------
    def class_totals(self) -> Dict[str, Dict[str, int]]:
        """``{kernel class: {launches, points, flops, dram_bytes}}`` over
        every device."""
        return {}

    def scratch_stats(self) -> Dict[str, float]:
        """Scratch-cache counters, for gauges and reports."""
        return self.scratch.stats()


class HostBackend(ExecutionBackend):
    """Plain NumPy execution: no devices, no records, no accounting."""

    target = "host"

    def _launch(self, name, fn, npoints, spec):
        return fn()

    def _reduce(self, name, values, op, spec, npoints):
        return None if values is None else reduce_values(values, op)


class DeviceBackend(ExecutionBackend):
    """Recorded execution on simulated GPUs, one device per rank.

    ``spec.rank`` selects from the backend's device list (Summit: one
    V100 per MPI rank); each launch is counted once, in that device's
    launch table, priced by its name once per distinct launch.
    """

    target = "device"

    def __init__(self, devices: Optional[List[object]] = None) -> None:
        super().__init__()
        # resolved here, once: repro.kernels imports this package
        from repro.kernels.counts import budget_for_kernel
        from repro.kernels.device import GpuDevice, LaunchRecord

        # each distinct (name, npoints, kernel class) is priced once
        self._record = lru_cache(maxsize=None)(lambda name, n, cls: (
            LaunchRecord.priced(name, n, budget_for_kernel(name), cls)))
        self.devices = list(devices or [GpuDevice()])

    def device_for(self, rank: int):
        return self.devices[rank % len(self.devices)]

    def _launch(self, name, fn, npoints, spec):
        return self.device_for(spec.rank).run(
            self._record(name, npoints, spec.kernel_class), fn)

    def _reduce(self, name, values, op, spec, npoints):
        return self.device_for(spec.rank).reduce(
            name, values, op, spec.kernel_class, npoints)

    def reserve(self, nbytes: int, rank: int = 0) -> None:
        self.device_for(rank)._allocate(nbytes)

    def release(self, nbytes: int, rank: int = 0) -> None:
        self.device_for(rank)._release(nbytes)

    # -- accounting ---------------------------------------------------------
    def class_totals(self) -> Dict[str, Dict[str, int]]:
        from repro.kernels.device import TOTAL_FIELDS, launch_totals

        # the cache-level bytes are per kernel only (the roofline's)
        return {cls: {f: tot[f] for f in TOTAL_FIELDS[:4]}
                for cls, tot in launch_totals(self.devices,
                                              "kernel_class").items()}


class FusedBackend(DeviceBackend):
    """``device`` with one wide WENO launch per right-hand side."""

    target = "fused"
    fuses_kernels = True


#: every execution target, by the name ``backend.target`` takes
TARGETS = {"host": HostBackend, "device": DeviceBackend,
           "fused": FusedBackend}


def make_exec_backend(target: str,
                      devices: Optional[List[object]] = None) -> ExecutionBackend:
    """Build a backend by target name (``backend.target`` / REPRO_BACKEND)."""
    if target not in TARGETS:
        raise ValueError(f"unknown backend target {target!r}; targets: "
                         f"{', '.join(TARGETS)}")
    return TARGETS[target](devices)


# -- current-backend context -------------------------------------------------

_current: ExecutionBackend = HostBackend()


def current_backend() -> ExecutionBackend:
    """The active backend (host unless a driver activated another)."""
    return _current


@contextmanager
def use_backend(backend: ExecutionBackend):
    """Activate ``backend`` for the dynamic extent of a block.

    Re-entrant: the previously active backend is restored on exit, so
    nested drivers (e.g. a validation run inside a recorded run) compose.
    """
    global _current
    previous, _current = _current, backend
    try:
        yield backend
    finally:
        _current = previous


def parallel_for(name: str, fn: Callable, npoints: int,
                 spec: Optional[LaunchSpec] = None):
    """Launch ``fn`` through the currently active backend."""
    return current_backend().parallel_for(name, fn, npoints, spec)
