"""The ``fused`` execution target: ``device`` with a fused launch stream.

Every target runs the same WENO sweep from the same role-keyed
:class:`~repro.backend.scratch.ScratchCache`
(:meth:`repro.numerics.fluxes.ConvectiveFlux.divergence`); this target
keeps the launch structure real GPU ports use (STREAmS-2's "fewer, wider
launches"): kernels that advertise fusion support (the
:class:`~repro.kernels.api.KernelSet` RK right-hand side) run the
per-direction WENO sweeps (``WENOx``/``WENOy``/``WENOz``) inside a
single wide launch (``KernelSet.rhs``).  The arithmetic is every
target's, so results are bitwise the ``host`` / ``device`` ones.

Accounting matches the ``device`` target (launch records on simulated
GPUs, per-class totals, pool-worker merging), so the ``device.class.*``
gauges, the run report and the roofline all show the fused launches —
fewer and wider than the host/device launch stream.
"""

from __future__ import annotations

from repro.backend.launch import DeviceBackend, register_target


class FusedBackend(DeviceBackend):
    """Fused target: device-style accounting, one wide WENO launch.

    Inherits the full accounting surface of :class:`DeviceBackend`
    (launch tables, per-class totals, worker merging) so recorded
    runs and reports work unchanged; adds the fusion capability flag the
    kernel layer keys on.
    """

    target = "fused"
    fuses_kernels = True


register_target("fused", lambda devices=None: FusedBackend(devices))
