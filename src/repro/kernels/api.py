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
entry points; the advance calls them once per batch and RK stage (the
rate once per step) on a :class:`BoundStage` (:mod:`repro.kernels.batch`)
that resolved what its launches need once per stage program, so a stage
pays for the library and not for the Python around it.  The body of a batched launch runs
once; every owning rank's device records one launch over its members
(:meth:`~repro.backend.ExecutionBackend.launch_shares`).

**Execution target** (``exec_backend``, :mod:`repro.backend`) — where the
launches run.  The paper moved the C++ kernels onto the GPU through the
launch API and observed no accuracy change, so the kernels never ask
where they are: every launch names its owning rank and the bytes of
WENO scratch it holds (Sec. IV-B) in the :class:`~repro.backend.LaunchSpec`,
and a target that accounts maps both to that rank's simulated device,
pricing each distinct launch once.
The arrays the sweep works in come from the backend's one
:class:`~repro.backend.ScratchCache`, whatever the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, List, Optional

import numpy as np

from repro.backend import ExecutionBackend, HostBackend, LaunchSpec, owners
from repro.numerics import native
from repro.numerics.cfl import local_max_rate
from repro.numerics.eos import IdealGasEOS
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

    # -- binding -------------------------------------------------------------
    def bind(self, stages) -> List["BoundStage"]:
        """The :class:`BoundStage` of each ``(u, metrics, ng, rank)`` of
        ``stages`` (one program's: they run one at a time).  Their
        compiled sweeps share the backend's scratch roles, the right-hand
        side too (role ``rhs``), each sized to the largest stage *before*
        any address is taken."""
        bound = [BoundStage(self, *stage) for stage in stages]
        scratch = self.exec_backend.scratch
        for role, k in (("rhs", 0), *native.ROLES):
            n = max([math.prod(shapes[k]) for stage in bound
                     for shapes in stage.shapes or ()], default=0)
            if n:
                scratch.get(role, (n,))
        for stage in bound:
            stage.attach(scratch)
            stage.bind_rate()
        return bound

    # -- RHS evaluation --------------------------------------------------
    def rhs(self, u, metrics: Optional[Metrics] = None, ng: int = 0,
            rank=0) -> np.ndarray:
        """Full right-hand side over the valid region of one patch
        ``u (ncons, *grown)`` or of a batch ``u (ncons, B, *grown)`` with
        :class:`StackedMetrics` (``rank``: its owner, for a batch one per
        member), bound for this call into an array the caller owns — or
        of ``u``, a stage :meth:`bind` made, into its shared buffer."""
        if not isinstance(u, BoundStage):
            u = BoundStage(self, u, metrics, ng, rank)
            u.attach(self.exec_backend.scratch, shared=False)
        return u.rhs()

    # -- RK update kernel -----------------------------------------------------
    def update(self, u_valid, du: np.ndarray, rhs: np.ndarray, dt: float,
               stage: int, rank=0) -> None:
        """Low-storage RK stage over the valid region of one patch or of
        a batch (``rank``: one per member), in place — or over that of
        ``u_valid``, a stage :meth:`bind` made, for its owning ranks."""
        if not isinstance(u_valid, BoundStage):
            u_valid = BoundStage(self, u_valid, None, 0, rank)
        u = u_valid.u_valid
        self.exec_backend.launch_shares(
            "Update", lambda: rk3_stage(u, du, rhs, dt, stage),
            u_valid.update_shares)

    # -- ComputeDt ----------------------------------------------------------
    def max_rate(self, u, metrics: Optional[Metrics] = None, rank=0):
        """CFL rate of one patch's valid region ``u`` — for a batch, of
        every member — as one ``ComputeDt`` reduction per owning rank
        (``rank``: one per member), bound for this call; or of the valid
        region of ``u``, a stage :meth:`bind` made."""
        if not isinstance(u, BoundStage):
            u = BoundStage(self, u, metrics, 0, rank)
            u.bind_rate()
        return self.exec_backend.launch_shares("ComputeDt", u.rate,
                                               u.rate_shares)


class BoundStage:
    """The RK stage of one patch or batch, resolved once: its valid
    region, each launch's shares (per owning rank: points and a spec with
    the scratch bytes) and — when the compiled sweep takes it — one
    library call per direction with its arguments converted, holding the
    arrays it points into (``u``, the metrics, scratch, the right-hand
    side); and ComputeDt's rate (:meth:`bind_rate`).  Out of the library's
    domain (no library, ``mixed`` precision, ``Viscous``, a non-ideal
    EOS, metrics it does not take) its launches run the NumPy sweeps of
    :meth:`ConvectiveFlux.divergence` instead."""

    def __init__(self, kernels: KernelSet, u: np.ndarray,
                 metrics: Optional[Metrics], ng: int, rank=0) -> None:
        dim = kernels.layout.dim
        self.kernels, self.u, self.metrics, self.ng = kernels, u, metrics, ng
        self.u_valid = u[(Ellipsis,) + (slice(ng, -ng or None),) * dim]
        # ``rank``: one per member of a batch, or one owning them all
        members = owners(rank, u.shape[1] if u.ndim > dim + 1 else 1)
        # per patch: valid points, and bytes of WENO scratch a sweep holds
        # on the device (Sec. IV-B: ``ncons`` grown patches)
        npts = math.prod(self.u_valid.shape[-dim:])
        scratch = u.itemsize * math.prod(u.shape[:1] + u.shape[-dim:])

        def shares(npoints, cls, scratch=0):
            return [(npoints * n, LaunchSpec(cls, r, scratch * n))
                    for r, n in members.items()]

        self.update_shares = shares(npts, "update")
        self.viscous_shares = shares(npts, "flux")
        self.rate_shares = shares(npts, "reduction")
        # the ordering's sweep order: a faithful source of drift (above)
        order = (range(dim) if kernels.ordering == "fortran"
                 else range(dim - 1, -1, -1))
        # the fused target runs the sweeps in one wide launch of ``dim *
        # nvalid`` points (per-class totals stay comparable)
        self.launches = ([("WENO" + "xyz"[:dim], tuple(order),
                           shares(dim * npts, "flux", scratch))]
                         if kernels.exec_backend.fuses_kernels else
                         [(DIRECTION_NAMES[d], (d,),
                           shares(npts, "flux", scratch)) for d in order])
        takes = (metrics is not None and kernels.precision == "double"
                 and kernels.viscous is None
                 and type(kernels.eos) is IdealGasEOS
                 and native.kernels() is not None)
        shapes = [native.split_takes(u, metrics.m(d), metrics.jacobian())
                  and native.sweep_shapes(u.shape, dim, d, ng)
                  for d in range(dim)] if takes else [None]
        #: each direction's ``native.sweep_shapes`` if the compiled sweep
        #: takes this stage; then (:meth:`attach`) its bound calls
        self.shapes = shapes if all(shapes) else None
        self.calls: Optional[list] = None
        self.out: Optional[np.ndarray] = None
        #: ComputeDt's rate over the valid region, once :meth:`bind_rate`
        self.rate: Optional[Callable] = None

    def attach(self, scratch, shared: bool = True) -> None:
        """Bind the compiled sweeps (if they take this stage); the
        right-hand side goes to the ``rhs`` role if ``shared``, else to an
        array of this stage's own."""
        if self.shapes is None:
            return
        ks, shape = self.kernels, self.shapes[0][0]
        self.out = scratch.get("rhs", shape) if shared else np.empty(shape)
        # the stage's directions in launch order, bound at once: the first
        # writes out and the primitives, the others add and read them
        order = tuple(d for _, ds, _ in self.launches for d in ds)
        calls = dict(zip(order, native.kernels().bind_sweep(
            ks.convective.scheme, self.u, [self.metrics.m(d) for d in order],
            self.metrics.jacobian(), order, self.ng, ks.eos.gamma,
            ks.convective.split_form == "distributed", scratch, self.out)))
        self.calls = [calls[ds[0]] if len(ds) == 1
                      else partial(_in_order, [calls[d] for d in ds])
                      for _, ds, _ in self.launches]

    def bind_rate(self) -> None:
        """Bind ComputeDt's rate: the compiled one if it takes the valid
        region, else the NumPy reference."""
        ks, metrics = self.kernels, self.metrics.interior(self.ng)
        lib = native.kernels()
        self.rate = (lib and lib.bind_rate(
            self.u_valid, [metrics.m(d) for d in range(ks.layout.dim)],
            metrics.jacobian(), ks.eos)) or partial(
                local_max_rate, ks.layout, ks.eos, self.u_valid, metrics)

    def rhs(self) -> np.ndarray:
        launch = self.kernels.exec_backend.launch_shares
        if self.calls is not None:
            for (name, _, shares), call in zip(self.launches, self.calls):
                launch(name, call, shares)
            return self.out
        ks, u, out = self.kernels, self.u, None
        if ks.precision == "mixed":
            # flux kernels in single precision, state and update in double
            # (the mixed-precision recipe the paper lists as future work)
            u = u.astype(np.float32).astype(np.float64)

        def sweeps(ds):
            nonlocal out  # the first sweep makes it, the others add to it
            for d in ds:
                out = ks.convective.divergence(
                    ks.layout, ks.eos, u, self.metrics, d, self.ng,
                    ks.exec_backend.scratch, out)

        for name, ds, shares in self.launches:
            launch(name, lambda: sweeps(ds), shares)
        if ks.viscous is not None:
            out = out + launch("Viscous", lambda: self._viscous(u),
                               self.viscous_shares)
        if ks.precision == "mixed":
            out = out.astype(np.float32).astype(np.float64)
        return out

    def _viscous(self, u: np.ndarray) -> np.ndarray:
        ks, ng = self.kernels, self.ng
        div = lambda u, metrics: ks.viscous.divergence(
            ks.layout, ks.eos, u, metrics, ng)
        if u.ndim == ks.layout.dim + 1:
            return div(u, self.metrics)
        # not axis-generic yet: the members of a batch one at a time
        return np.stack([div(u[:, b], self.metrics.member(b))
                         for b in range(u.shape[1])], axis=1)


def _in_order(calls) -> None:
    for call in calls:
        call()


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
