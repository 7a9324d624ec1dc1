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
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.amr.amrcore import AmrConfig, AmrCore
from repro.amr.boundary import GhostFaces
from repro.amr.boxarray import BoxArray, grow, lohi_of, num_pts
from repro.amr.distribution import DistributionMapping
from repro.amr.fillpatch import fill_patch_single_level, fill_patch_two_levels, fill_coarse_patch
from repro.amr.interp_curvilinear import CurvilinearInterp
from repro.amr.interp_weno import WenoInterp
from repro.amr.interpolate import ConservativeLinearInterp, TrilinearInterp
from repro.amr.multifab import MultiFab
from repro.amr.parallelcopy import copy_plan
from repro.amr.tagging import tag_density_gradient
from repro.backend import current_backend, use_backend
from repro.cases.base import Case
# re-exported: this module was the historical home of both names
from repro.core.config import BY_NAME, CroccoConfig  # noqa: F401
from repro.core.errors import ConfigError  # noqa: F401
from repro.core.versions import get_version
from repro.kernels.api import make_kernels
from repro.kernels.batch import Batch, shape_groups
from repro.kernels.device import GpuDevice
from repro.mpi.comm import Communicator
from repro.numerics import native
from repro.numerics.cfl import compute_dt
from repro.numerics.fluxes import ConvectiveFlux
from repro.numerics.metrics import (CartesianMetrics, StackedMetrics,
                                    write_metrics)
from repro.numerics.rk3 import NSTAGES
from repro.numerics.weno import WenoScheme

INTERPOLATORS = {
    "trilinear": TrilinearInterp,
    "curvilinear": CurvilinearInterp,
    "conservative": ConservativeLinearInterp,
    "weno": WenoInterp,
}


class Crocco(AmrCore):
    """A configured CRoCCo simulation on one Case."""

    def __init__(self, case: Case, config: Optional[CroccoConfig] = None) -> None:
        self.case = case
        self.config = config if config is not None else CroccoConfig()
        self.config.validate()
        self.version = get_version(self.config.version)

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
        # substrate alike — routes through this shared target
        from repro.backend import make_exec_backend

        self.backend_target = self.config.backend_target
        if self.backend_target == "auto":
            self.backend_target = self.version.target
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
        native.kernels()  # the library's load is set-up, not a step's
        self.ng = self.kernels.nghost
        interp_name = self.config.interpolator or self.version.interpolator
        self.interp = INTERPOLATORS[interp_name]()

        self.state: Dict[int, MultiFab] = {}
        self.du: Dict[int, MultiFab] = {}
        self.coords: Dict[int, MultiFab] = {}
        #: each level's curvilinear metrics, ``m`` then ``J`` (a Cartesian
        #: level has none: its batches broadcast one cell's)
        self.metrics: Dict[int, MultiFab] = {}
        #: the compute batches of each level's storage (built with it,
        #: dropped with it: a regrid never leaves one behind)
        self.batches: Dict[int, List[Batch]] = {}
        #: each level's ghost cells beyond the domain, the table its
        #: physical boundary fill runs on (built with the storage)
        self.faces: Dict[int, GhostFaces] = {}
        #: bytes of level state resident per rank, reserved on the
        #: execution backend while the level exists
        self._residency: Dict[int, List[int]] = {}
        self._coords_file: Optional[str] = None

        self.time = 0.0
        self.step_count = 0
        self.dt_history: List[float] = []
        self.regrid_count = 0
        #: boxes the regrids of the current step kept and built anew
        self.step_boxes_kept = self.step_boxes_new = 0
        self.step_plan_builds = 0
        self.step_graph_builds = 0
        #: tagged-cell count per level from the most recent error estimate
        self.last_tag_counts: Dict[int, int] = {}

        # -- resilience: built before the engine so the fault injector is
        # wired into task execution
        from repro.resilience.faults import FaultInjector
        from repro.resilience.stats import ResilienceStats

        self.resilience = ResilienceStats()
        try:
            self.faults = FaultInjector.from_config(self.config.faults_plan,
                                                    self.config.faults_seed)
        except ValueError as exc:
            raise ConfigError(f"{BY_NAME['faults_plan'].deck}: {exc}") from None

        from repro.runtime.engine import RuntimeEngine

        self.engine = RuntimeEngine(self)

        self.watchdog = None
        has_budget = (self.config.step_budget is not None
                      or self.config.wall_budget_s is not None)
        if self.config.watchdog or has_budget:
            # budgets are enforced on the watchdog path, so setting one
            # implies the watchdog even when validation is switched off
            from repro.resilience.watchdog import StepWatchdog

            self.watchdog = StepWatchdog(self.config, stats=self.resilience)

        self.recorder = None
        if self.config.trace_out or self.config.metrics_out:
            from repro.observability.recorder import RunRecorder

            self.recorder = RunRecorder(
                trace_out=self.config.trace_out,
                metrics_out=self.config.metrics_out,
                stream_metrics=self.config.metrics_stream)
            self.recorder.attach(self)

    # -- initialization (InitGrid / InitGridMetrics / InitFlow) ---------------
    def initialize(self) -> None:
        """Build the initial hierarchy and flow field."""
        with use_backend(self.exec_backend), self.profiler.region("Init"):
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
        coords = self.case.coordinates(geom, lohi_of([geom.domain]))[:, 0]
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
        if self._coords_file and os.path.exists(self._coords_file):
            os.unlink(self._coords_file)
            self._coords_file = None

    # -- AmrCore hooks -----------------------------------------------------
    def make_new_level_from_scratch(self, lev, ba, dm) -> None:
        self._build_level_storage(lev, ba, dm)
        for i, fab in self.state[lev]:
            fab.data[...] = self.case.initial_condition(
                self.coords[lev].fab(i).data, self.time)

    def remake_level(self, lev, ba, dm) -> None:
        """Replace level ``lev`` by ``ba`` / ``dm``, rebuilding only what
        changed (AMReX's RemakeLevel): a box equal to an old one copies its
        coordinate and metric rows into the new storage, and only cells
        no old box covers are interpolated from coarse before the old level
        is ParallelCopied in.  Its ghost cells wait for the level's next fill
        (ErrorEst's or the stage's), which writes them before any read."""
        with self.profiler.region("RemakeLevel"):
            old = self.state.get(lev)
            rows = [s[lev] for s in (self.coords, self.metrics) if lev in s]
            kept, pieces = {}, (ba.lohi, np.arange(len(ba)))
            if old is not None:
                at = {box.tobytes(): j for j, box in enumerate(old.ba.lohi)}
                for i, box in enumerate(ba.lohi):
                    j = at.get(box.tobytes())
                    if j is not None:
                        kept[i] = j
                pieces = old.ba.complement(ba.lohi)
            self._clear_level_storage(lev)
            self._build_level_storage(lev, ba, dm, kept, rows)
            self.step_boxes_kept += len(kept)
            self.step_boxes_new += len(ba) - len(kept)
            if len(pieces[0]):
                needs = self.interp.needs_coords
                fill_coarse_patch(
                    self.state[lev], self.state[lev - 1], self.geoms[lev],
                    self.ref_ratio_iv(), self.interp,
                    crse_coords=self.coords[lev - 1] if needs else None,
                    fine_coords=self.coords[lev] if needs else None,
                    profiler=self.profiler, pieces=pieces)
            if old is not None:
                # a plan run once: cached on the new level, it would keep
                # the old layout alive until the next regrid
                new = self.state[lev]
                plan = copy_plan(new, old, new.ncomp, fill_ghosts=False)
                plan.run("PC_copy", lambda: plan.copy(new.buffer, old.buffer))

    #: a new level is the remake of a level that had no boxes
    make_new_level_from_coarse = remake_level

    def clear_level(self, lev) -> None:
        self._clear_level_storage(lev)

    def error_est(self, lev) -> np.ndarray:
        with self.profiler.region("ErrorEst"):
            # two-level fill so coarse/fine-interface ghosts are valid
            # before the gradient criterion reads them
            self._fill_patch(lev)
            self._bc_fill(lev)
            domain = self.geoms[lev].domain
            mask = tag_density_gradient(self.state[lev], 0,
                                        self.case.tag_threshold, domain)
            cells = np.argwhere(mask) + np.array(domain.lo.tup())
            self.last_tag_counts[lev] = len(cells)
            return cells

    # -- storage management --------------------------------------------------
    def _build_level_storage(self, lev: int, ba: BoxArray,
                             dm: DistributionMapping,
                             kept: Optional[Dict[int, int]] = None,
                             rows: Sequence[MultiFab] = ()) -> None:
        """Allocate level ``lev``, one array per batch of :func:`shape_groups`
        in each MultiFab: box ``i`` copies row ``kept[i]`` of the replaced
        level's coordinates and metrics (``rows``) in, the others build
        theirs, metrics in place per run of new boxes of a batch."""
        # the stage graph names the level storage: it goes when any is built
        self.engine.drop_graph()
        kept = kept or {}
        lay, geom = self.case.layout, self.geoms[lev]
        grown = grow(ba.lohi, self.ng)
        groups = shape_groups({i: tuple(s) for i, s in enumerate(
            (grown[:, 1] - grown[:, 0] + 1).tolist())})
        state = self.state[lev] = MultiFab(ba, dm, lay.ncons, self.ng,
                                           self.comm, groups)
        self.du[lev] = MultiFab(ba, dm, lay.ncons, 0, self.comm, groups)
        coords = self.coords[lev] = MultiFab(ba, dm, lay.dim, self.ng,
                                             self.comm, groups)
        stores = [coords]
        dx = None if self.case.curvilinear else self.case.cartesian_dx(geom)
        if dx is None:
            stores.append(MultiFab(ba, dm, lay.dim ** 2 + 1, self.ng,
                                   self.comm, groups))
            self.metrics[lev] = stores[1]
        batches = self.batches[lev] = []
        for g, ids in enumerate(groups):
            arrs = [mf.arrays[g] for mf in stores]
            for b, i in enumerate(ids):
                if i in kept:
                    for arr, old in zip(arrs, rows):
                        arr[:, b] = old.fab(kept[i]).data
            built = [b for b, i in enumerate(ids) if i not in kept]
            if built:
                arrs[0][:, built] = self._get_coords(
                    geom, grown[[ids[b] for b in built]])
            if dx is not None:
                metrics = StackedMetrics([CartesianMetrics(dx)] * len(ids))
            else:
                # a run of new boxes is a view of the group: built in place
                starts = [k for k, b in enumerate(built)
                          if k == 0 or b != built[k - 1] + 1]
                for lo, hi in zip(starts, starts[1:] + [len(built)]):
                    run = slice(built[lo], built[hi - 1] + 1)
                    write_metrics(arrs[0][:, run], arrs[1][:, run])
                metrics = StackedMetrics(arrs[1])
            batches.append(Batch(g, ids, tuple(dm[i] for i in ids), metrics))
        self.faces[lev] = GhostFaces(state, coords, geom.domain,
                                     self.case.bc_faces)
        # each rank's share of the level is resident on its own device:
        # its fabs of every MultiFab of the level
        per_rank = sum(np.bincount(
            dm.ranks(), mf.buffer.itemsize * mf.ncomp * num_pts(mf.grown),
            self.comm.nranks) for mf in (state, self.du[lev], *stores))
        per_rank = per_rank.astype(int).tolist()
        for rank, n in enumerate(per_rank):
            self.exec_backend.reserve(n, rank)
        self._residency[lev] = per_rank

    def _get_coords(self, geom, regions: np.ndarray) -> np.ndarray:
        """getCoords() of equal-shape regions ``(B, 2, dim)``, ``(dim, B,
        *shape)``: from memory (analytic mapping) or from the file."""
        if self.config.coords_source == "file" and self._coords_file:
            for _ in regions:
                with self.profiler.region("getCoords_fileIO"):
                    # the stored file covers the finest uniform grid;
                    # re-reading it per patch is exactly the overhead the
                    # paper removed
                    np.load(self._coords_file, mmap_mode=None)
        return self.case.coordinates(geom, regions)

    def _clear_level_storage(self, lev: int) -> None:
        # the stage graph holds this storage: it goes with it
        self.engine.drop_graph()
        for store in (self.state, self.du, self.coords, self.metrics,
                      self.batches, self.faces):
            store.pop(lev, None)
        for rank, nbytes in enumerate(self._residency.pop(lev, ())):
            self.exec_backend.release(nbytes, rank)

    # -- boundary conditions ---------------------------------------------
    def _bc_fill(self, lev: int) -> None:
        """The case's physical boundary fill of the whole level, in one
        ``BC_fill`` launch per owning rank (charged its fabs' ghost points)."""
        with self.profiler.region("BC_Fill"):
            faces = self.faces[lev]
            current_backend().launch_shares(
                "BC_fill", lambda: self.case.bc_fill(faces, self.time),
                faces.shares)

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
        plans_before = self.comm.plans_built
        graphs_before = self.engine.graphs_built
        self.step_boxes_kept = self.step_boxes_new = 0
        # the active backend routes every AMR-substrate launch of this step
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
        # communication plans and stage graphs built in this step: 0 unless
        # it regridded
        self.step_plan_builds = self.comm.plans_built - plans_before
        self.step_graph_builds = self.engine.graphs_built - graphs_before
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
        # the program ComputeDt's rates are bound in, built (after a regrid)
        # outside the region: binding is the program's cost, not ComputeDt's
        self.engine.stage_graph()
        with self.profiler.region("ComputeDt"):
            if self.config.fixed_dt is not None:
                return self.config.fixed_dt
            cfl = self.config.cfl if self.config.cfl is not None else self.case.cfl
            return compute_dt(self.max_rates(), cfl, self.comm)

    def max_rates(self) -> List[float]:
        """The largest CFL rate over each rank's patches (0: it has none),
        over the valid cells (ghosts can be stale right after a regrid):
        the rates the stage program bound, built here if a regrid dropped
        it."""
        rates = [0.0] * self.comm.nranks
        program = self.engine.stage_graph().bound
        for lev in range(self.finest_level + 1):
            for batch, bound in zip(self.batches[lev], program[lev]):
                got = self.kernels.max_rate(bound.stage)
                for rank, r in zip(batch.ranks, got.tolist()):
                    rates[rank] = max(rates[rank], r)
        return rates

    # -- Algorithm 2: RK3 advance ------------------------------------------
    def _rk3(self, dt: float) -> None:
        """One RK3 advance, executed as stage programs.

        The runtime engine runs the stage program of the current level
        storage (FillPatch split into nowait/finish halves, per-batch
        kernels, AverageDown in the last stage), built once per regrid,
        front to back in this process, bit for bit the historical eager
        loop.
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

    # -- diagnostics -----------------------------------------------------
    def cell_volumes(self, lev: int) -> Dict[int, np.ndarray]:
        """Each box's ``J`` over its valid cells, by box index (on a
        Cartesian level one cell's, which broadcasts)."""
        volumes = {}
        for batch in self.batches[lev]:
            J = batch.metrics.interior(self.ng).jacobian()
            volumes.update((i, J[b]) for b, i in enumerate(batch.ids))
        return volumes

    def total_mass(self) -> float:
        """Integral of density over the level-0 grid (conservation check)."""
        volumes = self.cell_volumes(0)
        total = 0.0
        for i, fab in self.state[0]:
            rho = fab.valid()[self.case.layout.rho_s].sum(axis=0)
            total += float((rho * volumes[i]).sum())
        return total

    def min_max(self, comp: int):
        return self.state[0].min(comp), self.state[0].max(comp)
