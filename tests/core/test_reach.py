"""Every module of ``repro``, and each whole function in it, is reached by
a run, or is named here with the reason it stays.

One subprocess does what a user of the deck CLI does (the deck pass of
``tools/reach.py``): each ``examples/decks`` deck and the 3-D benchmark
deck for two steps on ``host``, ``device`` and ``fused``, a checkpoint ->
restart -> plotfile round, ``--record --profile`` runs and the report,
and ``python -m repro -h``, under a first-call hook.  It fails on a module
no run imports and on a function of an imported module that no run calls
(both read from the AST), unless ``ALLOWED`` names it with one reason tag,
and on an entry that a run reaches after all.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

#: what no deck run reaches, each with why it stays: ``caller: <path>``
#: (what a user runs there reaches it: an example, a tool, a recorder,
#: the benchmark, the service), ``reference`` (a test compares production
#: code against it), ``seam`` (a test's way into production arithmetic),
#: ``hook`` (an abstract or default method), ``fault`` (an error or
#: recovery path), ``fallback`` (taken only where the machine lacks the
#: compiled kernels or their cache: whether the deck pass reaches it
#: depends on the machine, so it is never stale), ``protocol`` (dunders)
ALLOWED = {
    # -- whole modules ---------------------------------------------------
    "repro.serve.*": "caller: src/repro/serve/__main__.py "
                     "(python -m repro.serve)",
    "repro.serve.chaos": "fault: the service chaos suites' fault injector "
                         "(tests/serve)",
    # Layer B, the simulated Summit
    "repro.perfmodel": "caller: examples/summit_scaling.py",
    "repro.perfmodel.calibration": "caller: src/repro/perfmodel/__init__.py",
    "repro.perfmodel.decomposition":
        "caller: src/repro/perfmodel/__init__.py",
    "repro.perfmodel.execution": "caller: src/repro/perfmodel/__init__.py",
    "repro.perfmodel.scaling": "caller: examples/summit_scaling.py",
    "repro.perfmodel.trace_export": "caller: examples/summit_scaling.py",
    # -- functions, by module ----------------------------------------------
    # repro.amr.amrcore
    "repro.amr.amrcore.AmrCore.amr_savings":
        "caller: benchmarks/bench_ablation_grids.py",
    "repro.amr.amrcore.AmrCore.clear_level":
        "hook: abstract, Crocco's is what runs",
    "repro.amr.amrcore.AmrCore.equivalent_uniform_pts":
        "caller: benchmarks/bench_amr_savings.py",
    "repro.amr.amrcore.AmrCore.error_est":
        "hook: abstract, Crocco's is what runs",
    "repro.amr.amrcore.AmrCore.make_new_level_from_coarse":
        "hook: abstract, Crocco's is what runs",
    "repro.amr.amrcore.AmrCore.make_new_level_from_scratch":
        "hook: abstract, Crocco's is what runs",
    "repro.amr.amrcore.AmrCore.num_active_pts":
        "caller: benchmarks/bench_amr_savings.py",
    "repro.amr.amrcore.AmrCore.remake_level":
        "hook: abstract, Crocco's is what runs",
    "repro.amr.amrcore.optimal_regrid_interval":
        "caller: benchmarks/bench_ablation_grids.py",
    # repro.amr.box
    "repro.amr.box.Box.__eq__": "protocol: dunder",
    "repro.amr.box.Box.__repr__": "protocol: dunder",
    "repro.amr.box.Box.chop": "reference: tests/amr/cluster_oracle.py",
    "repro.amr.box.Box.coarsen": "caller: benchmarks/bench_fig1_fig2_amr.py",
    "repro.amr.box.Box.contains": "reference: tests/amr/plan_oracle.py",
    "repro.amr.box.Box.intersect": "reference: tests/amr/plan_oracle.py",
    "repro.amr.box.Box.intersects": "reference: tests/amr/plan_oracle.py",
    "repro.amr.box.Box.is_empty": "reference: tests/amr/plan_oracle.py",
    "repro.amr.box.Box.shift": "reference: tests/amr/plan_oracle.py",
    "repro.amr.box.Box.slices": "caller: src/repro/amr/interpolate.py",
    # repro.amr.boxarray
    "repro.amr.boxarray.BoxArray.__getitem__": "protocol: dunder",
    "repro.amr.boxarray.BoxArray.__hash__": "protocol: dunder",
    "repro.amr.boxarray.BoxArray.__repr__": "protocol: dunder",
    "repro.amr.boxarray.BoxArray.contains":
        "caller: benchmarks/bench_fig1_fig2_amr.py",
    # repro.amr.distribution
    "repro.amr.distribution.DistributionMapping.__eq__": "protocol: dunder",
    "repro.amr.distribution.DistributionMapping.__iter__": "protocol: dunder",
    "repro.amr.distribution.DistributionMapping.__repr__": "protocol: dunder",
    "repro.amr.distribution.DistributionMapping.load_per_rank":
        "caller: src/repro/perfmodel/decomposition.py",
    "repro.amr.distribution._knapsack":
        "caller: src/repro/amr/distribution.py",
    # repro.amr.fab
    "repro.amr.fab.FArrayBox.__repr__": "protocol: dunder",
    "repro.amr.fab.FArrayBox.view": "reference: tests/amr/plan_oracle.py",
    # repro.amr.geometry
    "repro.amr.geometry.Geometry.__repr__": "protocol: dunder",
    # repro.amr.interp_weno
    "repro.amr.interp_weno.WenoInterp.interp":
        "caller: src/repro/amr/fillpatch.py",
    "repro.amr.interp_weno._linear_weight":
        "caller: src/repro/amr/interp_weno.py",
    "repro.amr.interp_weno._quadratic_eval":
        "caller: src/repro/amr/interp_weno.py",
    "repro.amr.interp_weno.weno_interp_1d":
        "caller: src/repro/amr/interp_weno.py",
    # repro.amr.interpolate
    "repro.amr.interpolate.ConservativeLinearInterp.interp":
        "caller: src/repro/amr/fillpatch.py",
    "repro.amr.interpolate.Interpolator.interp":
        "seam: one piece through stencil (tests/amr/test_interpolate.py)",
    "repro.amr.interpolate.Interpolator.stencil":
        "caller: src/repro/amr/fillpatch.py",
    "repro.amr.interpolate._tile": "caller: src/repro/amr/interpolate.py",
    # repro.amr.intvect
    "repro.amr.intvect.IntVect.__eq__": "protocol: dunder",
    "repro.amr.intvect.IntVect.__floordiv__": "protocol: dunder",
    "repro.amr.intvect.IntVect.__len__": "protocol: dunder",
    "repro.amr.intvect.IntVect.__repr__": "protocol: dunder",
    "repro.amr.intvect.IntVect.allLE": "reference: tests/amr/plan_oracle.py",
    "repro.amr.intvect.IntVect.coarsen": "caller: src/repro/amr/box.py",
    "repro.amr.intvect.IntVect.max_with":
        "reference: tests/amr/plan_oracle.py",
    "repro.amr.intvect.IntVect.min_with":
        "reference: tests/amr/plan_oracle.py",
    # repro.amr.multifab
    "repro.amr.multifab.MultiFab.__repr__": "protocol: dunder",
    "repro.amr.multifab.MultiFab.contains_nan":
        "caller: benchmarks/bench_ablation_interp.py",
    "repro.amr.multifab.MultiFab.parallel_copy":
        "seam: ParallelCopy by copy_plan (tests/amr/test_parallelcopy.py)",
    # repro.amr.parallelcopy
    "repro.amr.parallelcopy.parallel_copy":
        "seam: ParallelCopy by copy_plan (tests/amr/test_parallelcopy.py)",
    # repro.backend.launch
    "repro.backend.launch.ExecutionBackend._launch":
        "hook: abstract, each target's",
    "repro.backend.launch.ExecutionBackend.reduce_data":
        "caller: benchmarks/e2e/spans.py",
    # repro.cases.base
    "repro.cases.base.Case.bc_fill": "caller: src/repro/core/crocco.py",
    "repro.cases.base.Case.exact_solution": "hook: a case's own, or none",
    "repro.cases.base.Case.initial_condition": "hook: a case's own, or none",
    "repro.cases.base.Case.source": "hook: a case's own, or none",
    # repro.cases.grids
    "repro.cases.grids.compression_ramp_mapping":
        "caller: examples/ramp_curvilinear.py",
    "repro.cases.grids.tanh_cluster_mapping":
        "caller: examples/ramp_curvilinear.py",
    # repro.cases.reacting
    "repro.cases.reacting.IgnitionFront.burned_fraction":
        "caller: examples/reacting_ignition.py",
    # repro.cases.riemann
    "repro.cases.riemann._pressure_function":
        "caller: src/repro/cases/riemann.py",
    "repro.cases.riemann.sample": "caller: src/repro/cases/shocktube.py",
    "repro.cases.riemann.star_state": "caller: src/repro/cases/riemann.py",
    # repro.cases.shocktube
    "repro.cases.shocktube.SodShockTube.exact_solution":
        "caller: examples/quickstart.py",
    # repro.cases.vortex
    "repro.cases.vortex.IsentropicVortex.__init__":
        "caller: benchmarks/bench_future_work.py",
    "repro.cases.vortex.IsentropicVortex.exact_solution":
        "caller: benchmarks/bench_future_work.py",
    "repro.cases.vortex.IsentropicVortex.initial_condition":
        "caller: src/repro/cases/vortex.py",
    "repro.cases.vortex.IsentropicVortex.make_eos":
        "caller: src/repro/cases/base.py",
    # repro.core.crocco
    "repro.core.crocco.Crocco._write_coords_file":
        "caller: src/repro/core/crocco.py",
    "repro.core.crocco.Crocco.clear_level":
        "hook: AmrCore's, for a level a regrid or a restore drops",
    "repro.core.crocco.Crocco.run":
        "caller: benchmarks/bench_ablation_grids.py",
    # repro.core.validation
    "repro.core.validation.compare_states":
        "caller: benchmarks/bench_future_work.py",
    "repro.core.validation.error_norms": "caller: tools/convergence.py",
    "repro.core.validation.flow_variables":
        "caller: src/repro/core/validation.py",
    "repro.core.validation.l2_difference":
        "caller: src/repro/core/validation.py",
    "repro.core.validation.observed_order": "caller: tools/convergence.py",
    # repro.core.versions
    "repro.core.versions.VersionConfig.on_gpu":
        "caller: src/repro/perfmodel/execution.py",
    "repro.core.versions.VersionConfig.uses_global_parallelcopy":
        "caller: src/repro/perfmodel/execution.py",
    # repro.io.checkpoint
    "repro.io.checkpoint.latest_checkpoint":
        "caller: src/repro/serve/worker.py",
    # repro.io.inputs
    "repro.io.inputs.InputDeck.__contains__": "protocol: dunder",
    "repro.io.inputs.InputDeck.domain_cells":
        "caller: benchmarks/e2e/child.py",
    "repro.io.inputs.InputDeck.get_bool": "caller: benchmarks/e2e/child.py",
    "repro.io.inputs.InputDeck.get_int": "caller: benchmarks/e2e/child.py",
    "repro.io.inputs.InputDeck.to_crocco_config":
        "caller: benchmarks/e2e/child.py",
    # repro.io.plotfile
    "repro.io.plotfile.read_level": "caller: tools/render_plotfile.py",
    "repro.io.plotfile.read_plotfile_header":
        "caller: tools/render_plotfile.py",
    # repro.kernels.device
    "repro.kernels.device.GpuDevice.__repr__": "protocol: dunder",
    # repro.machine.network
    "repro.machine.network.FatTreeModel._doublings":
        "caller: src/repro/machine/network.py",
    "repro.machine.network.FatTreeModel.barrier_time":
        "caller: src/repro/perfmodel/execution.py",
    "repro.machine.network.FatTreeModel.global_copy_time":
        "caller: src/repro/perfmodel/execution.py",
    "repro.machine.network.FatTreeModel.global_effective_bw":
        "caller: src/repro/machine/network.py",
    "repro.machine.network.FatTreeModel.p2p_effective_bw":
        "caller: src/repro/machine/network.py",
    "repro.machine.network.FatTreeModel.p2p_time":
        "caller: src/repro/perfmodel/execution.py",
    "repro.machine.network.FatTreeModel.reduction_time":
        "caller: src/repro/perfmodel/execution.py",
    # repro.machine.node
    "repro.machine.node.Power9Model.kernel_time":
        "caller: benchmarks/bench_fig3_kernels.py",
    # repro.machine.roofline
    "repro.machine.roofline.RooflinePoint.is_bandwidth_bound":
        "caller: benchmarks/bench_fig4_roofline.py",
    # repro.machine.summit
    "repro.machine.summit.SummitSpec.cores_per_node":
        "caller: src/repro/machine/summit.py",
    "repro.machine.summit.SummitSpec.ranks_for":
        "caller: benchmarks/bench_fig6_regions.py",
    "repro.machine.summit.SummitSpec.ranks_per_node":
        "caller: src/repro/machine/network.py",
    # repro.mpi.comm
    "repro.mpi.comm.Communicator.__repr__": "protocol: dunder",
    # repro.mpi.ledger
    "repro.mpi.ledger.CommLedger.__len__": "protocol: dunder",
    "repro.mpi.ledger.CommLedger.by_kind": "caller: benchmarks/e2e/child.py",
    "repro.mpi.ledger.CommLedger.clear":
        "caller: benchmarks/bench_ablation_interp.py",
    "repro.mpi.ledger.CommLedger.rows": "caller: src/repro/mpi/ledger.py",
    "repro.mpi.ledger.CommLedger.total_bytes":
        "caller: benchmarks/bench_ablation_interp.py",
    # repro.numerics.chemistry
    "repro.numerics.chemistry.ArrheniusReaction.heat_release":
        "caller: examples/reacting_ignition.py",
    # repro.numerics.eos
    "repro.numerics.eos.IdealGasEOS.temperature":
        "caller: src/repro/core/validation.py",
    "repro.numerics.eos.Species.gamma":
        "reference: tests/numerics/test_eos_state.py",
    # repro.numerics.metrics
    "repro.numerics.metrics.CartesianMetrics.interior":
        "seam: a per-call KernelSet call (tests/kernels/test_api.py)",
    "repro.numerics.metrics.CurvilinearMetrics.from_coordinates":
        "caller: examples/ramp_curvilinear.py",
    "repro.numerics.metrics.CurvilinearMetrics.gcl_residual":
        "caller: examples/ramp_curvilinear.py",
    "repro.numerics.metrics.Metrics.interior": "hook: abstract",
    "repro.numerics.metrics.Metrics.jacobian": "hook: abstract",
    "repro.numerics.metrics.Metrics.m": "hook: abstract",
    "repro.numerics.metrics.grid_quality":
        "caller: examples/ramp_curvilinear.py",
    # repro.numerics.native
    "repro.numerics.native._build":
        "fallback: a kernel cache miss builds the library",
    "repro.numerics.native._self_check":
        "fallback: a library with no stamp is checked",
    # repro.numerics.rk3
    "repro.numerics.rk3.advance":
        "seam: one array through rk3_stage (the ODE tests)",
    # repro.numerics.stencils
    "repro.numerics.stencils.central_derivative":
        "reference: tests/numerics/test_stencils_metrics.py",
    # repro.numerics.weno
    "repro.numerics.weno.WenoScheme.combine":
        "fallback: the NumPy sweep where no library can be had",
    "repro.numerics.weno.WenoScheme.combine_minus":
        "fallback: the NumPy sweep where no library can be had",
    "repro.numerics.weno.WenoScheme.reconstruct":
        "reference: tests/kernels/test_batched.py",
    "repro.numerics.weno._Allocate.get":
        "caller: src/repro/numerics/native.py",
    "repro.numerics.weno._classic_upwind_weights":
        "caller: src/repro/numerics/weno.py",
    "repro.numerics.weno.reconstruct_minus":
        "reference: tests/kernels/test_batched.py",
    "repro.numerics.weno.smoothness_matrix":
        "reference: tests/numerics/weno_oracle.py",
    "repro.numerics.weno.windows":
        "fallback: the NumPy sweep where no library can be had",
    # repro.observability.metrics
    "repro.observability.metrics.MetricsRegistry.close_stream":
        "caller: src/repro/observability/metrics.py",
    "repro.observability.metrics.MetricsRegistry.stream_to":
        "caller: src/repro/observability/recorder.py",
    # repro.observability.report
    "repro.observability.report.service_header":
        "caller: src/repro/observability/report.py",
    "repro.observability.report.service_recovery_section":
        "caller: src/repro/observability/report.py",
    # repro.observability.tracer
    "repro.observability.tracer.Tracer.begin_charged":
        "caller: src/repro/perfmodel/trace_export.py",
    "repro.observability.tracer.Tracer.charge":
        "caller: src/repro/perfmodel/trace_export.py",
    "repro.observability.tracer.Tracer.end_charged":
        "caller: src/repro/perfmodel/trace_export.py",
    "repro.observability.tracer.Tracer.instant":
        "fault: the watchdog's retry marks",
    # repro.perfmodel.decomposition
    "repro.perfmodel.decomposition.LevelDecomposition.box_pts_and_ranks":
        "hook: abstract, each decomposition's",
    "repro.perfmodel.decomposition.LevelDecomposition.boxes_per_rank":
        "hook: abstract, each decomposition's",
    "repro.perfmodel.decomposition.LevelDecomposition.fillboundary_volumes":
        "hook: abstract, each decomposition's",
    "repro.perfmodel.decomposition.LevelDecomposition.num_boxes":
        "hook: abstract, each decomposition's",
    "repro.perfmodel.decomposition.LevelDecomposition.num_pts":
        "hook: abstract, each decomposition's",
    "repro.perfmodel.decomposition.LevelDecomposition.per_rank_pts":
        "hook: abstract, each decomposition's",
    # repro.profiling.tinyprofiler
    "repro.profiling.tinyprofiler.TinyProfiler.calls":
        "caller: benchmarks/bench_ablation_grids.py",
    "repro.profiling.tinyprofiler.TinyProfiler.top_level":
        "caller: examples/quickstart.py",
    "repro.profiling.tinyprofiler.TinyProfiler.total":
        "caller: benchmarks/bench_ablation_grids.py",
    # repro.resilience.stats
    "repro.resilience.stats.ResilienceStats.__repr__": "protocol: dunder",
    # repro.resilience.watchdog
    "repro.resilience.watchdog.RunBudgetExceeded.__init__":
        "fault: the watchdog's give-up exceptions",
    "repro.resilience.watchdog.StepFailure.__init__":
        "fault: the watchdog's give-up exceptions",
    "repro.resilience.watchdog.StepWatchdog._unrecoverable":
        "fault: restore from the last good checkpoint",
    # repro.serve.client
    "repro.serve.client.ServeError.__init__":
        "fault: a service error or recovery path",
    "repro.serve.client.ServeError.retryable":
        "fault: a service error or recovery path",
    "repro.serve.client._parse_retry_after":
        "fault: a service error or recovery path",
    # repro.serve.fleet
    "repro.serve.fleet.WorkerFleet._fail":
        "fault: a service error or recovery path",
    "repro.serve.fleet.WorkerFleet._recover_lost":
        "fault: a service error or recovery path",
    "repro.serve.fleet.WorkerFleet._redispatch":
        "fault: a service error or recovery path",
    "repro.serve.fleet.WorkerFleet._run_inline":
        "fault: a service error or recovery path",
    # repro.serve.registry
    "repro.serve.registry.RunRegistry._salvage":
        "fault: a service error or recovery path",
    "repro.serve.registry.RunRegistry.note_resubmit":
        "fault: a service error or recovery path",
    # repro.serve.server
    "repro.serve.server.Draining.__init__":
        "fault: a service error or recovery path",
    "repro.serve.server.Overloaded.__init__":
        "fault: a service error or recovery path",
    "repro.serve.server.SimulationService._retry_after":
        "fault: a service error or recovery path",
    # repro.serve.worker
    "repro.serve.worker._last_streamed_step":
        "fault: a service error or recovery path",
}


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "tools" / "reach.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


reach = load_tool()


@pytest.fixture(scope="module")
def deck_pass(tmp_path_factory):
    out, compiled = reach.deck_pass(tmp_path_factory.mktemp("reach"))
    called, imported = reach.read_records([out])[:2]
    return compiled, reach.check(reach.reference(), called, imported,
                                 ALLOWED)


@pytest.fixture()
def found(deck_pass):
    return deck_pass[1]


def test_every_module_is_reached_by_a_run_or_allowed(found):
    assert not found["unreached_modules"], (
        f"imported only by tests: {found['unreached_modules']}")


def test_every_function_is_reached_by_a_run_or_allowed(deck_pass):
    compiled, found = deck_pass
    if not compiled:
        pytest.skip("no compiler and no cached library: the deck pass ran "
                    "the NumPy sweep, so the compiled path is unreachable")
    assert not found["unreached"], (
        f"called only by tests (run it, give it a reason in ALLOWED, or "
        f"delete it): {found['unreached']}")


def test_no_entry_is_reached_by_a_run(found):
    assert not found["stale"], (
        f"reached by a run, drop from ALLOWED: {found['stale']}")


def test_every_entry_carries_one_tag_and_its_caller_names_it():
    assert not reach.untagged(ALLOWED)
    assert not reach.caller_problems(ALLOWED)
    ref = reach.reference()
    modules = reach.modules()
    unknown = [k for k in ALLOWED if k not in ref
               and k.removesuffix(".*") not in modules]
    assert not unknown, f"names no function or module: {unknown}"
