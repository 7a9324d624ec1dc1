"""Execution backends: the ParallelFor/ReduceData launch seam.

CRoCCo 2.0's port puts *every* kernel — flux sweeps, FillBoundary
pack/unpack, ParallelCopy, interpolation, AverageDown, tagging, the
ComputeDt reduction — behind the AMReX GPU API (``launch`` /
``ParallelFor`` / ``ReduceData``), which is exactly what makes the
device-side accounting of the paper's evaluation complete.  This module
hoists that seam out of :mod:`repro.kernels.device` into a shared layer
both the kernel layer and the AMR substrate launch through.

**Targets are pluggable.**  A backend target registers itself with
:func:`register_target`; :func:`make_exec_backend` constructs backends
*only* through that registry, and :func:`available_targets` (and the
derived module attribute ``TARGETS``) enumerate what is installed:

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
    The ``device`` target with a fused launch stream
    (:mod:`repro.backend.fused`): kernels that advertise fusion run the
    per-direction WENO sweeps — the same compiled call each — inside one
    wide launch.  Accounting matches the device target and the results
    are bitwise host's.

**One scratch cache per backend.**  Every backend instance — ``host``
included — owns a role-keyed :class:`ScratchCache`; the WENO sweep of
every target takes its intermediates from it (the allocation pattern the
paper's port reaches by hoisting scratch out of the kernels, Sec. IV-B),
and :meth:`ExecutionBackend.scratch_stats` reports its hit rate.

**The launch contract is a** :class:`LaunchSpec`.  Every target accepts
``parallel_for(name, fn, npoints, spec)`` / ``reduce_data(name, values,
op, spec)`` uniformly, and nothing else.

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
backend around each step with :func:`use_backend` (the LaunchContext).
Launch accounting lives in one place, the devices' launch tables: per-class
totals are a view of them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.scratch import ScratchCache

#: kernel classes used to group launch accounting
KERNEL_CLASSES = ("flux", "update", "fillpatch", "interp", "averagedown",
                  "tagging", "reduction")

_REDUCE_OPS = {"min": np.min, "max": np.max, "sum": np.sum}

#: the fields :meth:`ExecutionBackend.class_totals` reports per kernel class
COUNTER_FIELDS = ("launches", "points", "flops", "dram_bytes")


# -- the launch contract -----------------------------------------------------

@dataclass(frozen=True)
class LaunchSpec:
    """The one documented keyword contract of ``parallel_for``/``reduce_data``.

    Every registered target accepts a LaunchSpec uniformly (targets that
    do not account simply ignore the accounting fields), replacing the
    per-target keyword lists that used to drift apart:

    ``kernel_class``
        Coarse accounting group (one of :data:`KERNEL_CLASSES`).
    ``budget``
        A :class:`~repro.kernels.counts.KernelBudget` pricing the launch
        (flops/bytes per point); accounting targets resolve ``None`` from
        the launch name via
        :func:`~repro.kernels.counts.budget_for_kernel`.
    ``rank``
        The simulated MPI rank issuing the launch; accounting targets
        map it to that rank's device (Summit: one V100 per rank).
    ``shape``
        Array-shape hint: the shape of the patch (or batch of patches)
        the launch covers, which lets a target report which shapes
        drive its scratch cache.
    """

    kernel_class: str = "flux"
    budget: Optional[object] = None
    rank: int = 0
    shape: Optional[Tuple[int, ...]] = None


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

    def __init__(self) -> None:
        #: kernel intermediates, reused across launches, stages and steps
        self.scratch = ScratchCache()

    def parallel_for(self, name: str, fn: Callable, npoints: int,
                     spec: Optional[LaunchSpec] = None):
        return self._launch(name, fn, npoints, spec or _FLUX_SPEC)

    def reduce_data(self, name: str, values, op: str = "min",
                    spec: Optional[LaunchSpec] = None) -> float:
        return self._reduce(name, values, op, spec or _REDUCTION_SPEC)

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

    def _reduce(self, name: str, values, op: str, spec: LaunchSpec) -> float:
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

    def _reduce(self, name, values, op, spec) -> float:
        if op not in _REDUCE_OPS:
            raise ValueError(f"unknown reduction op {op!r}")
        return float(_REDUCE_OPS[op](values))


class DeviceBackend(ExecutionBackend):
    """Recorded execution on simulated GPUs, one device per rank.

    ``spec.rank`` selects from the backend's device list (Summit: one
    V100 per MPI rank); each launch is counted once, in that device's
    launch table.
    """

    target = "device"

    def __init__(self, devices: Optional[List[object]] = None) -> None:
        super().__init__()
        # resolved here, once: repro.kernels imports this package
        from repro.kernels.counts import budget_for_kernel
        from repro.kernels.device import GpuDevice

        self._budget_for = budget_for_kernel
        self.devices = list(devices or [GpuDevice()])

    def device_for(self, rank: int):
        return self.devices[rank % len(self.devices)]

    def _launch(self, name, fn, npoints, spec):
        b = spec.budget if spec.budget is not None else self._budget_for(name)
        return self.device_for(spec.rank).launch(
            name, fn, npoints,
            flops_per_point=b.flops_per_point,
            dram_bytes_per_point=b.dram_bytes_per_point,
            l2_amplification=b.l2_amplification,
            l1_amplification=b.l1_amplification,
            kernel_class=spec.kernel_class,
        )

    def _reduce(self, name, values, op, spec) -> float:
        return self.device_for(spec.rank).reduce(
            name, values, op=op, kernel_class=spec.kernel_class)

    def reserve(self, nbytes: int, rank: int = 0) -> None:
        self.device_for(rank)._allocate(nbytes)

    def release(self, nbytes: int, rank: int = 0) -> None:
        self.device_for(rank)._release(nbytes)

    # -- accounting ---------------------------------------------------------
    def class_totals(self) -> Dict[str, Dict[str, int]]:
        from repro.kernels.device import launch_totals

        return {cls: {f: tot[f] for f in COUNTER_FIELDS}
                for cls, tot in launch_totals(self.devices,
                                              "kernel_class").items()}


# -- target registry ---------------------------------------------------------

class UnknownTargetError(ValueError):
    """An execution-target name with no registered factory."""


#: name -> factory(devices=None) -> ExecutionBackend, in registration order
_TARGET_FACTORIES: Dict[str, Callable[..., ExecutionBackend]] = {}


def register_target(name: str, factory: Callable[..., ExecutionBackend], *,
                    override: bool = False) -> None:
    """Register an execution-target factory under ``name``.

    ``factory(devices=None)`` must return a fresh
    :class:`ExecutionBackend`.  Registering an existing name raises
    unless ``override=True`` (used by tests and downstream forks to swap
    a target implementation in place).
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"target name must be a non-empty string, got {name!r}")
    if name == "auto":
        raise ValueError("'auto' is reserved for version-default resolution")
    if name in _TARGET_FACTORIES and not override:
        raise ValueError(
            f"target {name!r} is already registered "
            f"(pass override=True to replace it)")
    _TARGET_FACTORIES[name] = factory


def unregister_target(name: str) -> None:
    """Remove a registered target (primarily for test isolation)."""
    _TARGET_FACTORIES.pop(name, None)


def available_targets() -> Tuple[str, ...]:
    """Registered target names, in registration order."""
    return tuple(_TARGET_FACTORIES)


def make_exec_backend(target: str,
                      devices: Optional[List[object]] = None) -> ExecutionBackend:
    """Build a backend by target name (``backend.target`` / REPRO_BACKEND).

    Construction goes through the registry *only*: every target —
    built-in or downstream — plugs in via :func:`register_target`.
    """
    factory = _TARGET_FACTORIES.get(target)
    if factory is None:
        raise UnknownTargetError(
            f"unknown backend target {target!r}; registered targets: "
            f"{', '.join(available_targets())}")
    return factory(devices=devices)


# the built-in accounting targets; the `fused` target registers
# itself from repro.backend.fused (imported by the package __init__)
register_target("host", lambda devices=None: HostBackend())
register_target("device", lambda devices=None: DeviceBackend(devices))


def __getattr__(name: str):
    # TARGETS is *derived* from the registry (not a duplicated literal):
    # late-registered targets show up, and `from ... import TARGETS`
    # re-executed inside functions always sees the current set
    if name == "TARGETS":
        return available_targets()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- current-backend context -------------------------------------------------

_DEFAULT = HostBackend()
_current: ExecutionBackend = _DEFAULT


def current_backend() -> ExecutionBackend:
    """The active backend (host unless a driver activated another)."""
    return _current


def set_backend(backend: Optional[ExecutionBackend]) -> ExecutionBackend:
    """Install ``backend`` (None restores the host default); returns the
    previously active backend."""
    global _current
    previous = _current
    _current = backend if backend is not None else _DEFAULT
    return previous


@contextmanager
def use_backend(backend: ExecutionBackend):
    """LaunchContext: activate ``backend`` for the dynamic extent of a block.

    Re-entrant: the previously active backend is restored on exit, so
    nested drivers (e.g. a validation run inside a recorded run) compose.
    """
    previous = set_backend(backend)
    try:
        yield backend
    finally:
        set_backend(previous)


def parallel_for(name: str, fn: Callable, npoints: int,
                 spec: Optional[LaunchSpec] = None):
    """Launch ``fn`` through the currently active backend."""
    return current_backend().parallel_for(name, fn, npoints, spec)


def reduce_data(name: str, values, op: str = "min",
                spec: Optional[LaunchSpec] = None) -> float:
    """Reduce ``values`` through the currently active backend."""
    return current_backend().reduce_data(name, values, op, spec)
