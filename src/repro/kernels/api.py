"""The kernel layer: the Fortran -> C++ port, functionally.

A :class:`KernelSet` bundles the per-patch kernels CRoCCo's RK3 advance
calls (Algorithm 2): ``WENOx/y/z``, ``Viscous``, ``Update``, plus the
``ComputeDt`` rate estimate.  Two things about it are independent:

**Arithmetic ordering** (``ordering``) — what the kernels compute:

``fortran``
    The original kernel organization: the RK right-hand side accumulates
    direction sweeps in x, y, z order and assembles fluxes with
    Fortran-style left-to-right summation.

``cpp``
    The translated kernels.  Mathematically identical, but the compiler
    re-associates differently: we model this by accumulating the direction
    sweeps in reverse order and pairing additions differently.  Running
    both orderings on the same problem produces a small floating-point
    drift whose L2 norm plateaus near machine-precision-amplified levels —
    the paper's 1e-7 validation criterion (Sec. IV-A).

**Patches and batches.**  The grid axes of every kernel argument are the
*trailing* ``dim`` axes, so the same code takes one patch —
``u (ncons, *grown)`` — or a batch of equal-shape patches on an axis
between component and grid — ``u (ncons, B, *grown)``, ``metrics.m(d)
(dim, B, *grown)``, ``jacobian() (B, *grown)``
(:class:`~repro.numerics.metrics.StackedMetrics`) — and a batch computes,
member for member, exactly what the per-patch calls do (the
Lax-Friedrichs ``alpha`` stays one per member).  :meth:`KernelSet.rhs`,
:meth:`~KernelSet.update` and :meth:`~KernelSet.max_rate` are the only
entry points; the advance calls them once per batch
(:mod:`repro.kernels.batch`), which is what removes the per-call overhead
of many small boxes.  The body of a batched launch runs once, and every
owning rank's device records one launch over its own members' points.
``Viscous`` still walks the members of a batch inside its one launch.

**Execution target** (``exec_backend``, :mod:`repro.backend`) — where the
launches run.  The paper moved the C++ kernels onto the GPU through the
launch API and observed no accuracy change, so the kernels never ask
where they are: every launch names its owning rank in the
:class:`~repro.backend.LaunchSpec`, WENO scratch is reserved through the
backend before the launch (Sec. IV-B), and a target that accounts maps
both to that rank's simulated device.  The arrays the sweep actually
works in come from the backend too — its one
:class:`~repro.backend.ScratchCache`, whatever the target.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.backend import ExecutionBackend, HostBackend, LaunchSpec
from repro.numerics.cfl import local_max_rate
from repro.numerics.fluxes import ConvectiveFlux
from repro.numerics.metrics import Metrics
from repro.numerics.rk3 import rk3_stage
from repro.numerics.state import StateLayout
from repro.numerics.viscous import ViscousFlux

ORDERINGS = ("fortran", "cpp")

DIRECTION_NAMES = ("WENOx", "WENOy", "WENOz")


@dataclass
class KernelSet:
    """The kernels of one solver configuration: an arithmetic ordering
    launched through one execution backend."""

    ordering: str
    layout: StateLayout
    eos: object
    convective: ConvectiveFlux
    viscous: Optional[ViscousFlux] = None
    #: "double" or "mixed": mixed precision (a paper future-work item,
    #: Sec. VI-A) evaluates the flux kernels in float32 while keeping the
    #: state and the RK update in float64
    precision: str = "double"
    #: the execution backend launches route through (None: host)
    exec_backend: Optional[ExecutionBackend] = None

    def __post_init__(self) -> None:
        if self.ordering not in ORDERINGS:
            raise ValueError(
                f"unknown ordering {self.ordering!r}; options {ORDERINGS}")
        if self.precision not in ("double", "mixed"):
            raise ValueError("precision must be 'double' or 'mixed'")
        if self.exec_backend is None:
            self.exec_backend = HostBackend()
        # the translated (cpp) kernels evaluate the LF split in the
        # re-associated form — the fortran/C++ floating-point divergence
        want = "fused" if self.ordering == "fortran" else "distributed"
        if self.convective.split_form != want:
            self.convective = replace(self.convective, split_form=want)

    @property
    def nghost(self) -> int:
        ng = self.convective.nghost + 1
        if self.viscous is not None:
            ng = max(ng, self.viscous.nghost)
        return ng

    # -- launches --------------------------------------------------------------
    def _launch(self, name: str, body, npts: int, kernel_class: str, shape,
                rank, scratch: int = 0):
        """Run ``body`` once and record it on the owning rank's device.

        ``npts`` and ``scratch`` (bytes of device global memory reserved
        from the host around the launch, Sec. IV-B) are per patch.  For a
        batch ``rank`` holds one rank per member (one rank: it owns them
        all), and accounting is not execution: every owning rank records
        one launch over its own members' points — the first carries the
        body, the others an empty one, as ``PC_copy`` does.
        """
        backend = self.exec_backend
        out = None
        patches = shape[1] if len(shape) > self.layout.dim + 1 else 1
        owners = Counter(rank) if hasattr(rank, "__iter__") else {rank: patches}
        for r, n in owners.items():
            if scratch:
                backend.reserve(scratch * n, r)
            try:
                res = backend.parallel_for(
                    name, body, npts * n,
                    LaunchSpec(kernel_class=kernel_class, rank=r))
            finally:
                if scratch:
                    backend.release(scratch * n, r)
            if body is not _no_body:
                out, body = res, _no_body
        return out

    def _npts(self, shape, ng: int = 0) -> int:
        """Points per patch: the trailing ``dim`` axes less ``ng`` ghosts."""
        return math.prod([s - 2 * ng for s in shape[-self.layout.dim:]])

    # -- RHS evaluation --------------------------------------------------
    def rhs(self, u: np.ndarray, metrics: Metrics, ng: int,
            rank=0) -> np.ndarray:
        """Full right-hand side over the valid region of one patch
        ``u (ncons, *grown)`` or of a batch of equal-shape patches
        ``u (ncons, B, *grown)`` with :class:`StackedMetrics`.

        The accumulation *order* of direction sweeps differs between the
        fortran and cpp orderings (see module docstring): a deliberate,
        faithful source of floating-point divergence.  ``rank`` is the
        patch's owning rank (Summit runs one rank per GPU) — for a batch,
        one rank per member.
        """
        dim = self.layout.dim
        if self.precision == "mixed":
            # flux kernels evaluate in single precision; the state stays
            # double and the update accumulates in double (the standard
            # mixed-precision recipe the paper lists as future work)
            u = u.astype(np.float32).astype(np.float64)
        directions = (range(dim) if self.ordering == "fortran"
                      else range(dim - 1, -1, -1))

        scratch = self.exec_backend.scratch

        def sweeps(ds, out=None):
            # one right-hand side per call: the first sweep makes it, the
            # others add to it
            for d in ds:
                out = self.convective.divergence(
                    self.layout, self.eos, u, metrics, d, ng, scratch, out)
            return out

        npts = self._npts(u.shape, ng)
        if self.exec_backend.fuses_kernels:
            # the fused target runs the directional sweeps inside one wide
            # launch (bitwise the per-direction launches), named
            # ``WENOxy``/``WENOxyz`` and covering ``dim * nvalid`` points,
            # so per-class point and flop totals stay comparable with the
            # per-direction launch stream
            out = self._weno_launch(
                "WENO" + "xyz"[:dim], lambda: sweeps(directions), dim * npts,
                u, rank)
        else:
            out = None
            for d in directions:
                out = self._weno_launch(
                    DIRECTION_NAMES[d], lambda: sweeps((d,), out), npts,
                    u, rank)
        if self.viscous is not None:
            out = out + self._viscous(u, metrics, ng, rank)
        assert out is not None
        if self.precision == "mixed":
            out = out.astype(np.float32).astype(np.float64)
        return out

    def _weno_launch(self, name: str, body, npts: int, u: np.ndarray,
                     rank):
        """One WENO launch with its scratch: the reconstruction scratch
        arrays, ``ncons`` grown patches' worth per patch."""
        nbytes = self.layout.ncons * u.itemsize * self._npts(u.shape)
        return self._launch(name, body, npts, "flux", u.shape, rank,
                            scratch=nbytes)

    def _viscous(self, u: np.ndarray, metrics: Metrics, ng: int,
                 rank) -> np.ndarray:
        assert self.viscous is not None
        div = lambda u, metrics: self.viscous.divergence(
            self.layout, self.eos, u, metrics, ng)
        if u.ndim == self.layout.dim + 1:
            body = lambda: div(u, metrics)
        else:
            # not axis-generic yet: the members of a batch one at a time
            body = lambda: np.stack(
                [div(u[:, b], metrics.member(b)) for b in range(u.shape[1])],
                axis=1)
        return self._launch("Viscous", body, self._npts(u.shape, ng), "flux",
                            u.shape, rank)

    # -- RK update kernel -----------------------------------------------------
    def update(self, u_valid: np.ndarray, du: np.ndarray, rhs: np.ndarray,
               dt: float, stage: int, rank=0) -> None:
        """Low-storage RK stage over the valid region of one patch or of
        a batch (``rank``: one per member), in place."""
        self._launch("Update",
                     lambda: rk3_stage(u_valid, du, rhs, dt, stage),
                     self._npts(u_valid.shape), "update", u_valid.shape,
                     rank)

    # -- ComputeDt ----------------------------------------------------------
    def max_rate(self, u: np.ndarray, metrics: Metrics, rank=0):
        """Patch CFL rate, via the backend ReduceData (a recorded device
        reduction on an accounting target, plain NumPy on host); for a
        batch, the rate of every member."""
        return local_max_rate(self.layout, self.eos, u, metrics,
                              self.exec_backend, rank)


def _no_body() -> None:
    """The body of a launch that is recorded but runs nothing."""


def make_kernels(
    ordering: str,
    layout: StateLayout,
    eos,
    convective: Optional[ConvectiveFlux] = None,
    viscous: Optional[ViscousFlux] = None,
    exec_backend: Optional[ExecutionBackend] = None,
) -> KernelSet:
    """Convenience constructor with default operators (host execution
    unless an ``exec_backend`` is given)."""
    return KernelSet(
        ordering=ordering,
        layout=layout,
        eos=eos,
        convective=convective if convective is not None else ConvectiveFlux(),
        viscous=viscous,
        exec_backend=exec_backend,
    )
