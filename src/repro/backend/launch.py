"""Execution backends: the ParallelFor/ReduceData launch seam.

CRoCCo 2.0's port puts *every* kernel — flux sweeps, FillBoundary
pack/unpack, ParallelCopy, interpolation, AverageDown, tagging, the
ComputeDt reduction — behind the AMReX GPU API (``launch`` /
``ParallelFor`` / ``ReduceData``), which is exactly what makes the
device-side accounting of the paper's evaluation complete.  This module
hoists that seam out of :mod:`repro.kernels.device` into a shared layer
both the kernel layer and the AMR substrate launch through.

**Three targets, one table.**  :data:`TARGETS` maps each target name to
its class, and :func:`make_exec_backend` looks the name up there.
``host`` runs each body directly and records nothing — the v1.x CPU
path.  ``device`` runs the same bodies as recorded launches on simulated
:class:`~repro.kernels.device.GpuDevice` instances (arena, launch
records, flop/byte budgets): bitwise host's, only the accounting differs
— the v2.0/2.1 default.  ``fused`` is ``device`` with the RK right-hand
side's per-direction WENO sweeps (:class:`~repro.kernels.api.KernelSet`;
the same compiled call each) inside one wide ``WENOxy`` / ``WENOxyz``
launch.

**One scratch cache per backend.**  Every backend instance — ``host``
included — owns a role-keyed :class:`ScratchCache`; the WENO sweep of
every target takes its intermediates from it (the allocation pattern the
paper's port reaches by hoisting scratch out of the kernels, Sec. IV-B),
and :meth:`ExecutionBackend.scratch_stats` reports its hit rate.

**A launch is a name, a class, a rank and its scratch.**  Every target
accepts ``parallel_for(name, fn, npoints, spec)`` / ``reduce_data(name,
values, op, spec)`` with a :class:`LaunchSpec`, and nothing else; both
end in the one hook ``_launch``.  An accounting target records a launch
as what ran, ``LaunchRecord(name, npoints, kernel class)``, and counts it
in one place, :meth:`~repro.kernels.device.GpuDevice.run`; its cost
follows from its name, priced in one view of the launch tables,
:func:`~repro.kernels.device.launch_totals`.  A batch or plan spanning
several ranks launches through :meth:`ExecutionBackend.launch_shares`:
one launch per owning rank, the first carrying the body.

**Simulated devices belong to the accounting targets.**  A launch names
the issuing rank (``spec.rank``); the target maps it to that rank's
:class:`~repro.kernels.device.GpuDevice`, which holds the launch's
scratch while it runs (``spec.scratch``, Sec. IV-B) and refuses a launch
it does not fit.  Resident level state is charged by
:meth:`ExecutionBackend.reserve` / :meth:`~ExecutionBackend.release`,
no-ops on ``host``: a run has devices, launches, scratch and residency
exactly when its target accounts.

A module-level current backend (default: host) lets deep call sites —
the AMR substrate has no reference to the driver — resolve their target
with :func:`current_backend`; the driver activates its configured
backend around each step with :func:`use_backend`.  Launch accounting
lives in one place, the devices' launch tables: per-class totals are a
view of them.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from functools import partial
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.scratch import ScratchCache

_REDUCE_OPS = {"min": np.min, "max": np.max, "sum": np.sum}
_tuple_new = tuple.__new__


def reduce_values(values, op: str) -> float:
    """``op`` over ``values``: the arithmetic of every target's
    ``ReduceData``."""
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
    ``scratch``
        Bytes of device memory the launch holds while it runs (WENO's,
        Sec. IV-B); accounting targets refuse a launch they do not fit.
    """

    kernel_class: str = "flux"
    rank: int = 0
    scratch: int = 0


_FLUX_SPEC = LaunchSpec(kernel_class="flux")
_REDUCTION_SPEC = LaunchSpec(kernel_class="reduction")

#: one owning rank's launch: its points and spec
Share = Tuple[int, LaunchSpec]


def owners(rank, members: int) -> Dict[int, int]:
    """Members per owning rank: ``rank`` is one per member of a batch, or
    the one rank owning all ``members``."""
    return Counter(rank) if hasattr(rank, "__iter__") else {rank: members}


def _empty() -> None:
    """The body of a launch that is recorded but runs nothing."""


class ExecutionBackend:
    """Launch primitives shared by the kernel layer and the AMR substrate.

    ``parallel_for(name, fn, npoints, spec)`` runs ``fn`` as one logical
    device launch over ``npoints`` grid points; ``reduce_data`` is the
    ``amrex::ReduceData`` analogue, one launch over its values.  Targets
    implement :meth:`_launch` and decide whether anything is recorded.
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
                    spec: Optional[LaunchSpec] = None) -> float:
        """``op`` over ``values``, one launch over them."""
        return self._launch(name, partial(reduce_values, values, op),
                            int(np.size(values)), spec or _REDUCTION_SPEC)

    def launch_shares(self, name: str, body: Callable,
                      shares: Sequence[Share]):
        """``body`` as one launch per ``(npoints, spec)`` of ``shares``, one
        per owning rank of a batch or plan: the first runs ``body`` and
        returns its result, the others run nothing (accounting is not
        execution); no shares, no launch."""
        out = None
        for n, (npoints, spec) in enumerate(shares):
            if n:
                self.parallel_for(name, _empty, npoints, spec)
            else:
                out = self.parallel_for(name, body, npoints, spec)
        return out

    # -- device memory (accounting targets only; a no-op on host) ----------
    def reserve(self, nbytes: int, rank: int = 0) -> None:
        """Charge ``nbytes`` of resident state (a level's storage) to
        ``rank``'s device; accounting targets raise
        :class:`~repro.kernels.device.DeviceMemoryError` past the device
        capacity.  Pair with :meth:`release`.  Kernel scratch is not
        reserved: it rides on its launch (``LaunchSpec.scratch``).
        """

    def release(self, nbytes: int, rank: int = 0) -> None:
        """Return ``nbytes`` reserved on ``rank``'s device."""

    # -- target hooks ------------------------------------------------------
    def _launch(self, name: str, fn: Callable, npoints: int,
                spec: LaunchSpec):
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


class DeviceBackend(ExecutionBackend):
    """Recorded execution on simulated GPUs, one device per rank.

    ``spec.rank`` selects from the backend's device list (Summit: one
    V100 per MPI rank); each launch and reduction is counted once, in that
    device's launch table, as what ran.
    """

    target = "device"

    def __init__(self, devices: Optional[List[object]] = None) -> None:
        super().__init__()
        # resolved here, once: repro.kernels imports this package
        from repro.kernels.device import GpuDevice, LaunchRecord

        # one record is built per launch: without the NamedTuple's
        # Python-level ``__new__`` frame
        self._record_type = LaunchRecord
        self.devices = list(devices or [GpuDevice()])

    def device_for(self, rank: int):
        return self.devices[rank % len(self.devices)]

    def _launch(self, name, fn, npoints, spec):
        return self.device_for(spec.rank).run(
            _tuple_new(self._record_type, (name, npoints, spec.kernel_class)),
            fn, spec.scratch)

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
