"""The ``fused`` execution target: the first backend that *optimizes*.

The ``host`` and ``device`` targets run the same arithmetic — one
accounts, one does not.  This target changes what actually executes,
reproducing the three performance moves real GPU ports make (STREAmS-2's
"fewer, wider launches"; the paper's Sec. IV-B scratch-array story):

1. **Kernel fusion** — kernels that advertise fusion support (the
   :class:`~repro.kernels.api.KernelSet` RK right-hand side) collapse
   the per-direction WENO sweeps (``WENOx``/``WENOy``/``WENOz``) into a
   single wide launch that computes the shared primitive variables once
   and sweeps all directions from them
   (:func:`repro.kernels.fused.fused_sweep`).
2. **Scratch caching** — reconstruction scratch arrays are served from a
   :class:`ScratchCache` holding one buffer per (role, dtype), grown to
   the largest request, with hit/miss counters, instead of being
   reallocated on every launch: the steady-state hit rate is ~100%
   whatever box and batch shapes a regrid brings.
3. **Optional JIT** — when numba is importable (a *soft* dependency;
   nothing here imports it at module scope), the hottest kernel — the
   4-candidate WENO combination — is compiled on first use.  Absent
   numba, the pure-NumPy fused path runs; behavior is identical either
   way up to floating-point re-association.

Accounting matches the ``device`` target (launch records on simulated
GPUs, per-class totals, pool-worker merging), so the ``device.class.*``
gauges, the run report and the roofline all show the fused launches —
fewer and wider than the host/device launch stream.

Accuracy contract: fused results drift from the ``host`` target by no
more than 1e-7 relative L2 on the DMR deck — the same criterion the
paper applies to its Fortran -> C++ port — asserted by
``tests/backend/test_fused.py`` and ``benchmarks/bench_fused_kernels.py``.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backend.launch import DeviceBackend, register_target

#: REPRO_FUSED_JIT values: "auto" (use numba when importable), "on"
#: (require numba; fall back with a one-time warning if missing), "off"
JIT_MODES = ("auto", "on", "off")


def numba_available() -> bool:
    """True when the optional numba dependency is importable."""
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


class ScratchCache:
    """Role-keyed scratch-array allocator with hit counters.

    ``get(role, shape)`` returns an *uninitialized* array of that shape,
    a view of the one flat buffer kept per ``(role, dtype)``; callers own
    the full overwrite (the fused kernels write every element through
    ``out=`` ops before reading) and hold a role's array only until they
    ask for that role again.  A buffer is regrown when a request exceeds
    it, so the cache settles at the largest request per role — it does
    not grow with the number of box or batch shapes a run goes through.
    One cache lives per backend instance, so buffers are reused across
    launches, RK stages and steps — the allocation pattern the paper's
    port achieves by hoisting scratch allocation out of the kernels
    (Sec. IV-B).
    """

    def __init__(self) -> None:
        self._store: Dict[tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def get(self, role: str, shape: Tuple[int, ...],
            dtype=np.float64) -> np.ndarray:
        n = math.prod(shape)
        key = (role, np.dtype(dtype).str)
        buf = self._store.get(key)
        if buf is None or buf.size < n:
            self.misses += 1
            buf = self._store[key] = np.empty(n, dtype=dtype)
        else:
            self.hits += 1
        return buf[:n].reshape(shape)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._store.values())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {"entries": len(self._store), "bytes": self.nbytes,
                "hits": self.hits, "misses": self.misses,
                "hit_rate": self.hit_rate}

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0


class FusedBackend(DeviceBackend):
    """Fused optimizing target: device-style accounting, optimized launches.

    Inherits the full accounting surface of :class:`DeviceBackend`
    (launch tables, per-class totals, worker merging) so recorded
    runs and reports work unchanged; adds the :class:`ScratchCache`, the
    fusion capability flag the kernel layer keys on, and the numba JIT
    policy (``jit`` argument or the ``REPRO_FUSED_JIT`` env var).
    """

    target = "fused"
    fuses_kernels = True

    def __init__(self, devices: Optional[List[object]] = None,
                 jit: Optional[str] = None) -> None:
        super().__init__(devices)
        self.scratch = ScratchCache()
        mode = (jit or os.environ.get("REPRO_FUSED_JIT", "auto")).lower()
        if mode not in JIT_MODES:
            from repro.core.errors import ConfigError

            raise ConfigError(
                f"unknown fused JIT mode {mode!r} (from REPRO_FUSED_JIT); "
                f"options {JIT_MODES}")
        self.jit_mode = mode
        self.jit_enabled = mode != "off" and numba_available()
        if mode == "on" and not self.jit_enabled:
            import warnings

            warnings.warn(
                "REPRO_FUSED_JIT=on but numba is not importable; "
                "falling back to the pure-NumPy fused path",
                RuntimeWarning, stacklevel=2)
        #: launches per LaunchSpec.shape hint — which box shapes drive
        #: the scratch cache (surfaced in stats() and the run report)
        self.launch_shapes: Dict[Tuple[int, ...], int] = {}

    def _launch(self, name, fn, npoints, spec):
        if spec.shape is not None:
            key = tuple(int(s) for s in spec.shape)
            self.launch_shapes[key] = self.launch_shapes.get(key, 0) + 1
        return super()._launch(name, fn, npoints, spec)

    def scratch_stats(self) -> Dict[str, float]:
        """Cache counters plus the JIT state, for gauges and reports."""
        stats = self.scratch.stats()
        stats["jit"] = 1.0 if self.jit_enabled else 0.0
        stats["shapes"] = len(self.launch_shapes)
        return stats


register_target("fused", lambda devices=None: FusedBackend(devices))
