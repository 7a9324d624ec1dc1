"""The CRoCCo driver: Algorithms 1 and 2 of the paper.

Main loop (Algorithm 1)::

    InitGrid / InitGridMetrics / InitFlow
    for n in steps:
        if n % regridFreq == 0: Regrid()
        ComputeDt()
        RK3()

RK3 advance (Algorithm 2)::

    for RKstage in 1..3:
        for lev in 0..nlevels:
            FillPatch(); BC_Fill()
            WENOx(); WENOy(); WENOz(); Viscous(); Update()
        if RKstage == 3: AverageDown()

All communication flows through the simulated MPI substrate and is
recorded in the communicator ledger; all regions are timed under the
TinyProfiler names used in the paper's profiles (Figs. 6-7).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.amr.amrcore import AmrConfig, AmrCore
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import DistributionMapping
from repro.amr.fillpatch import fill_patch_single_level, fill_patch_two_levels, fill_coarse_patch
from repro.amr.interp_curvilinear import CurvilinearInterp
from repro.amr.interp_weno import WenoInterp
from repro.amr.interpolate import ConservativeLinearInterp, TrilinearInterp
from repro.amr.multifab import MultiFab
from repro.amr.tagging import tag_density_gradient, tag_momentum_gradient, tagged_cells
from repro.backend import LaunchSpec
from repro.cases.base import Case
from repro.core.versions import VersionConfig, get_version
from repro.kernels.api import make_kernels
from repro.kernels.device import GpuDevice
from repro.mpi.comm import Communicator
from repro.numerics.cfl import compute_dt
from repro.numerics.fluxes import ConvectiveFlux
from repro.numerics.metrics import CartesianMetrics, CurvilinearMetrics
from repro.numerics.rk3 import NSTAGES
from repro.numerics.weno import VARIANTS as WENO_VARIANTS, WenoScheme
from repro.profiling.tinyprofiler import TinyProfiler

INTERPOLATORS = {
    "trilinear": TrilinearInterp,
    "curvilinear": CurvilinearInterp,
    "conservative": ConservativeLinearInterp,
    "weno": WenoInterp,
}
COORDS_SOURCES = ("stored", "file")
TAGGING = ("density", "momentum")


# ConfigError moved to repro.core.errors so the execution-backend target
# resolver can raise it without importing the driver; re-exported here
# because this was its historical home and callers import it from both.
from repro.core.errors import ConfigError  # noqa: E402,F401


def _workers_from_env() -> Optional[int]:
    """Parse REPRO_WORKERS, rejecting non-numeric values up front."""
    raw = os.environ.get("REPRO_WORKERS")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_WORKERS must be an integer, got {raw!r}") from None


@dataclass
class CroccoConfig:
    """Run configuration (the input deck)."""

    version: str = "2.1"
    max_level: int = 0
    blocking_factor: int = 8
    max_grid_size: int = 128
    #: steps between regrids, or "auto" to derive it from the CFL condition
    #: (Sec. II-B: regrid before features convect from a patch interior to
    #: a fine/coarse interface)
    regrid_int: "int | str" = 2
    n_error_buf: int = 1
    grid_eff: float = 0.7
    cfl: Optional[float] = None
    fixed_dt: Optional[float] = None
    nranks: int = 1
    ranks_per_node: int = 6
    weno_variant: str = "symbo"
    tagging: str = "density"  # one of TAGGING
    #: "stored" keeps the whole grid in memory (getCoords()); "file" rereads
    #: coordinates from a binary file at each new-patch creation — the
    #: paper's first, slower implementation (Sec. III-C, Regridding).
    coords_source: str = "stored"
    interpolator: Optional[str] = None  # override the version default
    #: observability: Chrome trace-event JSON output path (Perfetto-loadable)
    trace_out: Optional[str] = None
    #: observability: per-timestep metrics JSONL output path
    metrics_out: Optional[str] = None
    #: print the TinyProfiler report and ledger summary at end of run (CLI)
    profile: bool = False
    #: task execution backend: "serial" (deterministic, in-process) or
    #: "pool" (multiprocessing workers over shared-memory FABs); the
    #: REPRO_EXECUTOR env var overrides the default for CI matrices
    executor: str = field(
        default_factory=lambda: os.environ.get("REPRO_EXECUTOR", "serial"))
    #: pool worker count (default: one per CPU core, minimum two)
    workers: Optional[int] = field(default_factory=_workers_from_env)
    #: collect task-lifecycle spans + overhead attribution (perf.* gauges,
    #: the report's Bottleneck section); measured cost is ~per-task dict
    #: bookkeeping, itself reported as perf.overhead_s
    perfscope: bool = True
    #: execution-backend target: any name in the target registry —
    #: "host" (plain NumPy), "device" (recorded launches on the
    #: simulated GPUs), "fused" (optimizing: fused WENO sweeps, cached
    #: scratch, optional numba JIT) — or "auto" (the version's own
    #: target: device for 2.x, host for 1.x); deck key
    #: ``backend.target``, default from the REPRO_BACKEND env var for CI
    #: matrices.  Validated by :func:`repro.backend.resolve_target`
    #: (ConfigError, CLI exit 2).
    backend_target: str = field(
        default_factory=lambda: os.environ.get("REPRO_BACKEND", "auto"))
    #: cross-run immutable cache directory (grid coords, curvilinear
    #: metrics, EOS tables, interpolation weights); None disables caching.
    #: Deck key ``run.cache_dir``; the serve layer points every run of a
    #: service at one shared directory.
    cache_dir: Optional[str] = None
    #: hard step budget enforced by the watchdog (None = unbounded); the
    #: serve layer maps a run's ``max_steps`` here and the watchdog raises
    #: :class:`~repro.resilience.watchdog.RunBudgetExceeded` when spent
    step_budget: Optional[int] = None
    #: hard wall-clock budget in seconds, measured from the first guarded
    #: step (None = unbounded); deck key ``run.max_wall_s``
    wall_budget_s: Optional[float] = None
    #: stream each metrics sample to ``metrics_out`` as it is taken (the
    #: serve layer's live-progress mode) instead of writing at finalize
    metrics_stream: bool = False

    # -- resilience (deck section ``resilience.*``) -----------------------
    #: validate every step (NaN/Inf, positivity spikes, CFL blowup) and
    #: retry failed steps from a pre-step snapshot
    watchdog: bool = True
    #: rollback/retry budget per step before restoring from a checkpoint
    max_step_retries: int = 3
    #: retries that re-run the identical dt before dt-halving kicks in
    retry_same_dt: int = 1
    #: supervise the pool executor (dead-worker detection, re-submission)
    supervise: bool = True
    #: per-task retry budget in the supervised pool
    task_retries: int = 2
    #: base delay of the capped exponential task-retry backoff (seconds)
    retry_backoff: float = 0.05
    #: seconds before an in-flight pool task is presumed lost
    task_timeout: float = 30.0
    #: pool respawns tolerated before degrading to inline execution
    max_pool_restarts: int = 3
    #: crash-safe checkpoint every N successful steps (0 = off)
    autocheckpoint_every: int = 0
    autocheckpoint_dir: str = "autochk"
    autocheckpoint_keep: int = 2
    #: restore-from-last-good budget after a step exhausts its retries
    max_restores: int = 2
    #: positivity-guard interventions per step above which the watchdog
    #: declares the step numerically failed (None = disabled)
    positivity_spike: Optional[int] = None
    #: fail a step whose realized dt*rate exceeds cfl*cfl_margin
    cfl_margin: Optional[float] = None
    #: fault-injection plan, e.g. "kill_worker@2.1;nan@4;seed=7"
    #: (deck key ``resilience.faults.plan`` or the REPRO_FAULTS env var)
    faults_plan: str = field(
        default_factory=lambda: os.environ.get("REPRO_FAULTS", ""))
    faults_seed: int = 0

    def resolve_version(self) -> VersionConfig:
        return get_version(self.version)

    def validate(self) -> "CroccoConfig":
        """Reject invalid settings with a clear message.

        Catches the classic foot-guns — an unknown version, interpolator,
        WENO variant or tagging criterion, ``workers < 1``, an unknown
        executor name, malformed budgets — here, where the failing knob
        can be named, instead of deep inside solver or pool construction.
        """
        from repro.runtime.executors import EXECUTORS

        version = self.resolve_version()
        for knob, value, options in (
                ("coords_source", self.coords_source, COORDS_SOURCES),
                ("interpolator", self.interpolator or version.interpolator,
                 INTERPOLATORS),
                ("weno variant", self.weno_variant, WENO_VARIANTS),
                ("tagging", self.tagging, TAGGING)):
            if value not in options:
                raise ConfigError(
                    f"unknown {knob} {value!r}; options {', '.join(options)}")
        if self.executor not in EXECUTORS:
            raise ConfigError(
                f"unknown executor {self.executor!r}; options "
                f"{', '.join(EXECUTORS)}")
        if self.workers is not None and self.workers < 1:
            raise ConfigError(
                f"workers must be >= 1, got {self.workers}")
        if self.step_budget is not None and self.step_budget < 1:
            raise ConfigError(
                f"step budget must be >= 1, got {self.step_budget}")
        if self.wall_budget_s is not None and self.wall_budget_s <= 0:
            raise ConfigError(
                f"wall budget must be positive, got {self.wall_budget_s}")
        return self


class Crocco(AmrCore):
    """A configured CRoCCo simulation on one Case."""

    def __init__(self, case: Case, config: Optional[CroccoConfig] = None) -> None:
        self.case = case
        self.config = config if config is not None else CroccoConfig()
        self.config.validate()
        self.version = self.config.resolve_version()

        #: cross-run immutable cache (coords / curvilinear metrics / EOS
        #: tables / interp weights), shared by every run pointed at the
        #: same directory — the serve layer's fleet-wide store
        self.case_cache = None
        if self.config.cache_dir:
            from repro.serve.cache import CaseCache

            self.case_cache = CaseCache(self.config.cache_dir)

        max_level = self.config.max_level if self.version.amr else 0
        self._auto_regrid = self.config.regrid_int == "auto"
        regrid_int = 2 if self._auto_regrid else int(self.config.regrid_int)
        amr_cfg = AmrConfig(
            max_level=max_level,
            blocking_factor=self.config.blocking_factor,
            max_grid_size=self.config.max_grid_size,
            grid_eff=self.config.grid_eff,
            n_error_buf=self.config.n_error_buf,
            regrid_int=regrid_int,
        )
        comm = Communicator(self.config.nranks, self.config.ranks_per_node)
        super().__init__(case.geometry0(), amr_cfg, comm)

        # execution backend: every launch — flux kernels and the AMR
        # substrate alike — routes through this shared target.  The
        # single resolver handles deck key / env var / CLI flag alike
        # and reports unknown targets as ConfigError (CLI exit 2).
        from repro.backend import make_exec_backend, resolve_target

        source = ("REPRO_BACKEND" if os.environ.get("REPRO_BACKEND")
                  and self.config.backend_target
                  == os.environ.get("REPRO_BACKEND")
                  else "backend.target")
        self.backend_target = resolve_target(
            self.config.backend_target, version_default=self.version.target,
            source=source)
        # one simulated GPU per rank (Summit: one V100 per MPI rank),
        # owned by the target: a target that does not account drops them
        self.exec_backend = make_exec_backend(
            self.backend_target,
            [GpuDevice(name=f"V100-rank{r}") for r in range(comm.nranks)])

        self.kernels = make_kernels(
            self.version.ordering,
            case.layout,
            case.eos,
            convective=ConvectiveFlux(scheme=WenoScheme(variant=self.config.weno_variant)),
            viscous=case.viscous,
            exec_backend=self.exec_backend,
        )
        self.ng = self.kernels.nghost
        interp_name = self.config.interpolator or self.version.interpolator
        self.interp = INTERPOLATORS[interp_name]()
        self.profiler = TinyProfiler()

        self.state: Dict[int, MultiFab] = {}
        self.du: Dict[int, MultiFab] = {}
        self.coords: Dict[int, MultiFab] = {}
        self.metrics: Dict[int, Dict[int, object]] = {}
        #: bytes of level state resident per rank, reserved on the
        #: execution backend while the level exists
        self._residency: Dict[int, List[int]] = {}
        self._coords_file: Optional[str] = None

        self.time = 0.0
        self.step_count = 0
        self.dt_history: List[float] = []
        self.regrid_count = 0
        #: tagged-cell count per level from the most recent error estimate
        self.last_tag_counts: Dict[int, int] = {}

        # -- resilience: built before the engine so the supervised pool
        # and the fault injector are wired into task execution
        from repro.resilience.faults import FaultInjector
        from repro.resilience.stats import ResilienceStats

        self.resilience = ResilienceStats()
        self.faults = FaultInjector.from_config(self.config.faults_plan,
                                                self.config.faults_seed)
        #: the PositivityGuard, when safeguards.attach_guard() installed one
        self.guard = None

        from repro.runtime.engine import RuntimeEngine

        self.engine = RuntimeEngine(self, self.config.executor,
                                    self.config.workers,
                                    perfscope=self.config.perfscope)

        self.watchdog = None
        has_budget = (self.config.step_budget is not None
                      or self.config.wall_budget_s is not None)
        if self.config.watchdog or has_budget:
            # budgets are enforced on the watchdog path, so setting one
            # implies the watchdog even when validation is switched off
            from repro.resilience.watchdog import StepWatchdog

            self.watchdog = StepWatchdog(
                max_step_retries=self.config.max_step_retries,
                retry_same_dt=self.config.retry_same_dt,
                positivity_spike=self.config.positivity_spike,
                cfl_margin=self.config.cfl_margin,
                autocheckpoint_every=self.config.autocheckpoint_every,
                autocheckpoint_dir=self.config.autocheckpoint_dir,
                autocheckpoint_keep=self.config.autocheckpoint_keep,
                max_restores=self.config.max_restores,
                step_budget=self.config.step_budget,
                wall_budget_s=self.config.wall_budget_s,
                stats=self.resilience,
            )

        self.recorder = None
        if self.config.trace_out or self.config.metrics_out:
            from repro.observability.recorder import RunRecorder

            self.recorder = RunRecorder(
                trace_out=self.config.trace_out,
                metrics_out=self.config.metrics_out,
                stream_metrics=self.config.metrics_stream)
            self.recorder.attach(self)
            self.engine.bind_tracer(self.recorder.tracer)

    # -- initialization (InitGrid / InitGridMetrics / InitFlow) ---------------
    def initialize(self) -> None:
        """Build the initial hierarchy and flow field."""
        from repro.backend import use_backend

        with use_backend(self.exec_backend), self.profiler.region("Init"):
            if self.case_cache is not None:
                interp_name = (self.config.interpolator
                               or self.version.interpolator)
                self.case_cache.warm(self.case, interp_name)
            if self.config.coords_source == "file":
                self._write_coords_file()
            self.init_from_scratch()

    def _write_coords_file(self) -> None:
        """Persist the full finest-level grid coordinates to a binary file.

        The "file" coords source replays the paper's first regridding
        implementation, where each newly created AMR patch serially read
        its coordinates back from disk with std::iostream.
        """
        geom = self.geoms[self.config.max_level if self.version.amr else 0]
        coords = self.case.coordinates(geom, geom.domain)
        fd, path = tempfile.mkstemp(suffix=".coords.npy", prefix="crocco_")
        os.close(fd)
        np.save(path, coords)
        self._coords_file = path

    def close(self) -> None:
        if getattr(self, "_closed", False):
            return
        self._closed = True
        if self.recorder is not None:
            written = self.recorder.finalize(self)
            for kind, path in written.items():
                print(f"wrote {kind} {path}")
        self.engine.close()
        if self._coords_file and os.path.exists(self._coords_file):
            os.unlink(self._coords_file)
            self._coords_file = None

    def __enter__(self) -> "Crocco":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- AmrCore hooks -----------------------------------------------------
    def make_new_level_from_scratch(self, lev, ba, dm) -> None:
        self._build_level_storage(lev, ba, dm)
        for i, fab in self.state[lev]:
            c = self.coords[lev].fab(i).whole()
            u0 = self.case.initial_condition(c, self.time)
            fab.whole()[...] = u0

    def make_new_level_from_coarse(self, lev, ba, dm) -> None:
        self._build_level_storage(lev, ba, dm)
        fill_coarse_patch(
            self.state[lev], self.state[lev - 1], self.geoms[lev],
            self.ref_ratio_iv(), self.interp,
            crse_coords=self.coords[lev - 1] if self.interp.needs_coords else None,
            fine_coords=self.coords[lev] if self.interp.needs_coords else None,
            profiler=self.profiler,
        )
        self._bc_fill(lev)

    def remake_level(self, lev, ba, dm) -> None:
        old_state = self.state[lev]
        self._clear_level_storage(lev)
        self._build_level_storage(lev, ba, dm)
        # interpolate everywhere from coarse, then overwrite with surviving
        # same-level data (the standard AMReX RemakeLevel recipe)
        fill_coarse_patch(
            self.state[lev], self.state[lev - 1], self.geoms[lev],
            self.ref_ratio_iv(), self.interp,
            crse_coords=self.coords[lev - 1] if self.interp.needs_coords else None,
            fine_coords=self.coords[lev] if self.interp.needs_coords else None,
            profiler=self.profiler,
        )
        self.state[lev].parallel_copy(old_state)
        self._bc_fill(lev)

    def clear_level(self, lev) -> None:
        self._clear_level_storage(lev)

    def error_est(self, lev) -> np.ndarray:
        mf = self.state[lev]
        # two-level fill so coarse/fine-interface ghosts are valid before
        # the gradient criterion reads them
        self._fill_patch(lev)
        self._bc_fill(lev)
        lay = self.case.layout
        if self.config.tagging == "momentum":
            tags = tag_momentum_gradient(
                mf, tuple(range(lay.mom(0), lay.mom(0) + lay.dim)),
                self.case.tag_threshold,
            )
        else:
            tags = tag_density_gradient(mf, 0, self.case.tag_threshold)
        cells = tagged_cells(mf, tags)
        self.last_tag_counts[lev] = int(cells.shape[0])
        return cells

    # -- storage management --------------------------------------------------
    def _build_level_storage(self, lev: int, ba: BoxArray,
                             dm: DistributionMapping) -> None:
        lay = self.case.layout
        self.state[lev] = MultiFab(ba, dm, lay.ncons, self.ng, self.comm)
        self.du[lev] = MultiFab(ba, dm, lay.ncons, 0, self.comm)
        coords = MultiFab(ba, dm, lay.dim, self.ng, self.comm)
        geom = self.geoms[lev]
        for i, fab in coords:
            fab.whole()[...] = self._get_coords(geom, fab.grown_box())
        self.coords[lev] = coords
        self.metrics[lev] = {}
        for i, fab in coords:
            if self.case.curvilinear:
                if self.case_cache is not None:
                    # cross-run store of the 27-component metrics arrays;
                    # a hit rebuilds the exact float64 arrays, so cached
                    # and freshly computed runs stay bitwise identical
                    self.metrics[lev][i] = (
                        self.case_cache.curvilinear_metrics(fab.whole()))
                else:
                    self.metrics[lev][i] = (
                        CurvilinearMetrics.from_coordinates(fab.whole()))
            else:
                self.metrics[lev][i] = CartesianMetrics(self.case.cartesian_dx(geom))
        # each rank's share of the level is resident on its own device
        per_rank = [0] * self.comm.nranks
        for i, fab in self.state[lev]:
            per_rank[self.state[lev].dm[i]] += (
                fab.nbytes() + self.du[lev].fab(i).nbytes()
                + coords.fab(i).nbytes())
        for rank, nbytes in enumerate(per_rank):
            self.exec_backend.reserve(nbytes, rank)
        self._residency[lev] = per_rank
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.adopt_level(lev)

    def _get_coords(self, geom, region) -> np.ndarray:
        """getCoords(): from memory (analytic mapping) or from the file."""
        if self.config.coords_source == "file" and self._coords_file:
            with self.profiler.region("getCoords_fileIO"):
                # the stored file covers the finest uniform grid; re-reading
                # it per patch is exactly the overhead the paper removed
                _ = np.load(self._coords_file, mmap_mode=None)
                return self.case.coordinates(geom, region)
        if self.case_cache is not None:
            return self.case_cache.coordinates(self.case, geom, region)
        return self.case.coordinates(geom, region)

    def _clear_level_storage(self, lev: int) -> None:
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.release_level(lev)
        for store in (self.state, self.du, self.coords, self.metrics):
            store.pop(lev, None)
        for rank, nbytes in enumerate(self._residency.pop(lev, ())):
            self.exec_backend.release(nbytes, rank)

    # -- boundary conditions ---------------------------------------------
    def _bc_fill(self, lev: int) -> None:
        with self.profiler.region("BC_Fill"):
            geom = self.geoms[lev]
            mf = self.state[lev]
            for i, fab in mf:
                ghost_pts = fab.grown_box().num_pts() - fab.box.num_pts()
                self.exec_backend.parallel_for(
                    "BC_fill",
                    lambda fab=fab, i=i: self.case.bc_fill(
                        fab, geom, self.time, self.coords[lev].fab(i)),
                    ghost_pts,
                    LaunchSpec(kernel_class="fillpatch", rank=mf.dm[i]))

    def _fill_patch(self, lev: int) -> None:
        with self.profiler.region("FillPatch"):
            if lev == 0:
                fill_patch_single_level(self.state[0], self.geoms[0],
                                        profiler=self.profiler)
            else:
                needs = self.interp.needs_coords
                fill_patch_two_levels(
                    self.state[lev], self.state[lev - 1],
                    self.geoms[lev], self.geoms[lev - 1],
                    self.ref_ratio_iv(), self.interp,
                    crse_coords=self.coords[lev - 1] if needs else None,
                    fine_coords=self.coords[lev] if needs else None,
                    profiler=self.profiler,
                )

    # -- Algorithm 1: main loop -------------------------------------------
    def run(self, nsteps: int) -> None:
        if self.finest_level < 0:
            self.initialize()
        for _ in range(nsteps):
            self.step()

    def step(self) -> None:
        from repro.backend import use_backend

        # the LaunchContext routes every AMR-substrate launch of this step
        # (regrid, FillPatch, tagging, ComputeDt, ...) to the configured
        # execution backend
        with use_backend(self.exec_backend):
            if self.version.amr and self.config.max_level > 0:
                if self.step_count % self.regrid_interval() == 0:
                    with self.profiler.region("Regrid"):
                        self.regrid()
                    self.regrid_count += 1
            if self.watchdog is not None:
                self.watchdog.guarded_advance(self)
            else:
                self._advance(self._compute_dt())
        if self.recorder is not None:
            self.recorder.sample_step(self)

    def _advance(self, dt: float) -> None:
        """One unguarded advance: the RK3 graphs plus bookkeeping.

        The watchdog retries this whole unit, so everything it mutates
        (state, time, step_count, dt_history) is covered by its snapshot.
        """
        self._rk3(dt)
        if self.faults is not None:
            self.faults.corrupt_state(self)
        self.time += dt
        self.step_count += 1
        self.dt_history.append(dt)

    def regrid_interval(self) -> int:
        """Steps between regrids — fixed, or CFL-derived when "auto".

        The auto rule (Sec. II-B): a feature travels at most CFL cells per
        step, so regrid before it can cross from the smallest fine patch's
        interior to its edge.
        """
        if not self._auto_regrid:
            return int(self.config.regrid_int)
        from repro.amr.amrcore import optimal_regrid_interval

        lev = self.finest_level
        if lev <= 0 or self.box_arrays[lev] is None:
            return 1
        min_side = min(min(b.size()) for b in self.box_arrays[lev])
        cfl = self.config.cfl if self.config.cfl is not None else self.case.cfl
        return optimal_regrid_interval(min_side, cfl,
                                       self.amr_config.n_error_buf)

    def _compute_dt(self) -> float:
        with self.profiler.region("ComputeDt"):
            if self.config.fixed_dt is not None:
                return self.config.fixed_dt
            rates = [0.0] * self.comm.nranks
            for lev in range(self.finest_level + 1):
                mf = self.state[lev]
                for i, fab in mf:
                    # valid region only: ghost cells can be stale right
                    # after a regrid, before the stage's FillPatch
                    rank = mf.dm[i]
                    r = self.kernels.max_rate(
                        fab.valid(), self.metrics[lev][i].interior(self.ng),
                        rank)
                    rates[rank] = max(rates[rank], r)
            cfl = self.config.cfl if self.config.cfl is not None else self.case.cfl
            return compute_dt(rates, cfl, self.comm)

    # -- Algorithm 2: RK3 advance ------------------------------------------
    def _rk3(self, dt: float) -> None:
        """One RK3 advance, executed as per-stage task graphs.

        The runtime engine builds a graph per stage (FillPatch split into
        nowait/finish halves, per-box kernels, AverageDown) and runs it on
        the configured executor; the ``serial`` executor reproduces the
        historical eager loop bit for bit.
        """
        with self.profiler.region("Advance"):
            for lev in range(self.finest_level + 1):
                self.du[lev].set_val(0.0)
            self.engine.begin_step()
            for stage in range(NSTAGES):
                self.engine.run_stage(dt, stage)
            self.engine.end_step()

    @property
    def devices(self):
        """The run's simulated GPUs, one per rank — the execution
        backend's (none on a target that does not account)."""
        return self.exec_backend.devices

    def gpu_memory_report(self):
        """Per-rank simulated device memory (bytes in use, high water)."""
        return [(d.name, d.bytes_in_use, d.high_water) for d in self.devices]

    # -- diagnostics -----------------------------------------------------
    def total_mass(self) -> float:
        """Integral of density over the level-0 grid (conservation check)."""
        mf = self.state[0]
        total = 0.0
        for i, fab in mf:
            J = np.broadcast_to(
                self.metrics[0][i].jacobian(), fab.box.shape()
            )
            rho = fab.valid()[self.case.layout.rho_s].sum(axis=0)
            total += float((rho * J).sum())
        return total

    def min_max(self, comp: int):
        return self.state[0].min(comp), self.state[0].max(comp)
