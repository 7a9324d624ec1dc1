"""Shared execution-backend layer (ParallelFor/ReduceData).

Three targets in one table, ``TARGETS``; see :mod:`repro.backend.launch`
for the design notes.
"""

from repro.backend.launch import (TARGETS, DeviceBackend, ExecutionBackend,
                                  FusedBackend, HostBackend, LaunchSpec,
                                  Share, current_backend, make_exec_backend,
                                  owners, use_backend)
from repro.backend.scratch import ScratchCache

__all__ = [
    "TARGETS", "DeviceBackend", "ExecutionBackend", "FusedBackend",
    "HostBackend", "LaunchSpec", "ScratchCache", "Share", "current_backend",
    "make_exec_backend", "owners", "use_backend",
]
