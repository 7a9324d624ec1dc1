"""Shared execution-backend layer (ParallelFor/ReduceData/LaunchContext).

Targets plug in through the registry API (:func:`register_target` /
:func:`available_targets`); ``TARGETS`` is derived from the registry,
never duplicated.  See :mod:`repro.backend.launch` for the design notes
and :mod:`repro.backend.fused` for the fused-launch target.
"""

from repro.backend.launch import (COUNTER_FIELDS, KERNEL_CLASSES,
                                  DeviceBackend, ExecutionBackend,
                                  HostBackend, LaunchSpec,
                                  UnknownTargetError, available_targets,
                                  current_backend, make_exec_backend,
                                  parallel_for, reduce_data, register_target,
                                  set_backend, unregister_target, use_backend)
from repro.backend.scratch import ScratchCache

# importing the module registers the `fused` target with the registry
from repro.backend.fused import FusedBackend  # noqa: E402

#: the LaunchContext primitive is the ``use_backend`` context manager
LaunchContext = use_backend

__all__ = [
    "COUNTER_FIELDS", "KERNEL_CLASSES", "TARGETS", "DeviceBackend",
    "ExecutionBackend", "FusedBackend", "HostBackend", "LaunchContext",
    "LaunchSpec", "ScratchCache", "UnknownTargetError", "available_targets",
    "current_backend", "make_exec_backend", "parallel_for", "reduce_data",
    "register_target", "set_backend", "unregister_target", "use_backend",
]


def __getattr__(name: str):
    # TARGETS mirrors the registry dynamically (see launch.__getattr__)
    if name == "TARGETS":
        return available_targets()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
