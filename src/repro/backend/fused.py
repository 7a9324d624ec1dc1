"""The ``fused`` execution target: ``device`` with a fused launch stream.

Every target runs the same WENO sweep from the same role-keyed
:class:`~repro.backend.scratch.ScratchCache`
(:meth:`repro.numerics.fluxes.ConvectiveFlux.divergence`); this target
keeps the launch structure real GPU ports use (STREAmS-2's "fewer, wider
launches"):

1. **Kernel fusion** — kernels that advertise fusion support (the
   :class:`~repro.kernels.api.KernelSet` RK right-hand side) run the
   per-direction WENO sweeps (``WENOx``/``WENOy``/``WENOz``) inside a
   single wide launch that computes the shared primitive variables once
   (:func:`repro.kernels.fused.fused_sweep`).
2. **Optional JIT** — when numba is importable (a *soft* dependency;
   nothing here imports it at module scope), the hottest kernel — the
   4-candidate WENO combination — is compiled on first use.  Absent
   numba the NumPy combination runs and results are bitwise the
   ``host`` / ``device`` ones; with it they agree up to floating-point
   re-association (<= 1e-7 relative L2, the paper's port criterion).

Accounting matches the ``device`` target (launch records on simulated
GPUs, per-class totals, pool-worker merging), so the ``device.class.*``
gauges, the run report and the roofline all show the fused launches —
fewer and wider than the host/device launch stream.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

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


class FusedBackend(DeviceBackend):
    """Fused target: device-style accounting, one wide WENO launch.

    Inherits the full accounting surface of :class:`DeviceBackend`
    (launch tables, per-class totals, worker merging) so recorded
    runs and reports work unchanged; adds the fusion capability flag the
    kernel layer keys on and the numba JIT policy (``jit`` argument or
    the ``REPRO_FUSED_JIT`` env var).
    """

    target = "fused"
    fuses_kernels = True

    def __init__(self, devices: Optional[List[object]] = None,
                 jit: Optional[str] = None) -> None:
        super().__init__(devices)
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
        stats = super().scratch_stats()
        stats["jit"] = 1.0 if self.jit_enabled else 0.0
        stats["shapes"] = len(self.launch_shapes)
        return stats


register_target("fused", lambda devices=None: FusedBackend(devices))
