"""Integration tests for the CRoCCo driver."""

import numpy as np
import pytest

from repro.cases.dmr import DoubleMachReflection
from repro.cases.shocktube import SodShockTube
from repro.cases.vortex import IsentropicVortex
from repro.core.crocco import Crocco, CroccoConfig
from repro.core.validation import compare_states


def run_sod(version="1.1", t_end=0.1, **kw):
    case = SodShockTube(ncells=64)
    sim = Crocco(case, CroccoConfig(version=version, nranks=1, max_grid_size=64,
                                    **kw))
    sim.initialize()
    while sim.time < t_end:
        sim.step()
    return case, sim


def test_sod_matches_exact_riemann():
    case, sim = run_sod(t_end=0.15)
    fab = sim.state[0].fab(0)
    coords = sim.coords[0].fab(0).valid()
    exact = case.exact_solution(coords, sim.time)
    err = np.abs(fab.valid()[0] - exact[0])
    assert err.mean() < 0.02  # 64 cells: shock/contact smeared over a few
    # plateaus hit the exact star states
    x = coords[0]
    star_right = (x > 0.66) & (x < 0.73)  # between contact (0.64) and shock (0.76)
    assert np.abs(fab.valid()[0][star_right] - 0.26557).max() < 0.02


def test_sod_mass_conservation_until_outflow():
    case, sim = run_sod(t_end=0.1)
    # waves have not reached the boundaries: total mass is conserved
    # not bit-exact: after enough steps the numerical domain of dependence
    # reaches the open boundaries and tiny fluxes cross them
    assert sim.total_mass() == pytest.approx(0.5625, rel=1e-6)


def test_fixed_dt_and_history():
    case = SodShockTube(32)
    sim = Crocco(case, CroccoConfig(version="1.1", fixed_dt=1e-4, max_grid_size=32))
    sim.initialize()
    sim.run(3)
    assert sim.dt_history == [1e-4] * 3
    assert sim.time == pytest.approx(3e-4)


def test_profiler_regions_recorded():
    case, sim = run_sod(t_end=0.01)
    top = sim.profiler.top_level()
    for name in ("Init", "ComputeDt", "Advance"):
        assert name in top
    assert sim.profiler.calls("FillPatch") >= 3 * sim.step_count
    assert sim.profiler.calls("BC_Fill") >= 3 * sim.step_count


def test_fortran_vs_cpp_l2_plateau():
    """Sec. IV-A: the translation drift stays at machine-precision levels."""
    case_f, sim_f = run_sod("1.0", t_end=0.05)
    case_c, sim_c = run_sod("1.1", t_end=0.05)
    assert sim_f.step_count == sim_c.step_count
    diffs = compare_states(sim_f, sim_c)
    # small but (generically) nonzero: different accumulation order
    for var, d in diffs.items():
        assert d < 1e-7, (var, d)
    assert max(diffs.values()) > 0.0


def test_gpu_bitwise_matches_cpp():
    """Sec. IV-C: no change in accuracy when running on (simulated) GPUs."""
    _, sim_c = run_sod("1.1", t_end=0.02)
    case = SodShockTube(ncells=64)
    sim_g = Crocco(case, CroccoConfig(version="2.0", nranks=1, max_grid_size=64))
    sim_g.initialize()
    while sim_g.time < 0.02:
        sim_g.step()
    diffs = compare_states(sim_c, sim_g)
    assert max(diffs.values()) == 0.0


def test_dmr_stability_and_reflection():
    case = DoubleMachReflection(ncells=(64, 16))
    sim = Crocco(case, CroccoConfig(version="1.1", nranks=2, ranks_per_node=1,
                                    max_grid_size=32))
    sim.initialize()
    while sim.time < 0.02:
        sim.step()
    mn, mx = sim.min_max(0)
    assert mn > 1.0  # no vacuum
    assert mx > 8.5  # reflection amplifies density beyond the inflow jump
    assert not sim.state[0].contains_nan()


def test_dmr_amr_refines_the_shock():
    case = DoubleMachReflection(ncells=(64, 16))
    sim = Crocco(case, CroccoConfig(version="1.2", nranks=2, ranks_per_node=1,
                                    max_level=1, max_grid_size=32,
                                    blocking_factor=8, regrid_int=2))
    sim.initialize()
    assert sim.finest_level == 1
    savings = sim.amr_savings()
    assert 0.3 < savings < 1.0
    # run a little and confirm the fine level tracks the moving shock
    ba_before = sim.box_arrays[1]
    while sim.time < 0.015:
        sim.step()
    assert not sim.state[0].contains_nan()
    assert sim.box_arrays[1] != ba_before  # regrid followed the shock


def test_curvilinear_matches_cartesian_dmr_coarsely():
    """The stretched-grid curvilinear solution approximates the Cartesian one."""
    t_end = 0.01
    sims = {}
    for curv in (False, True):
        case = DoubleMachReflection(ncells=(64, 16), curvilinear=curv)
        sim = Crocco(case, CroccoConfig(version="1.1", max_grid_size=64))
        sim.initialize()
        while sim.time < t_end:
            sim.step()
        sims[curv] = sim
    # compare density range (fields live on different grids)
    for curv, sim in sims.items():
        mn, mx = sim.min_max(0)
        assert mn > 1.0
        assert 8.0 < mx < 25.0


def test_version20_has_global_parallelcopy_21_does_not():
    """The 2.0 vs 2.1 ablation: coordinate gathers dominate ParallelCopy."""
    traffic = {}
    for version in ("2.0", "2.1"):
        case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
        sim = Crocco(case, CroccoConfig(version=version, nranks=2,
                                        ranks_per_node=1, max_level=1,
                                        max_grid_size=32, regrid_int=4))
        sim.initialize()
        sim.comm.ledger.clear()
        sim.step()
        traffic[version] = sim.comm.ledger.total_bytes("parallelcopy")
    assert traffic["2.0"] > 3 * traffic["2.1"]


def test_gpu_device_accounting_in_driver():
    case = SodShockTube(32)
    sim = Crocco(case, CroccoConfig(version="2.0", max_grid_size=32,
                                    backend_target="device"))
    sim.initialize()
    assert sim.devices[0].bytes_in_use > 0  # level state resident
    sim.run(2)
    names = {rec.name for rec in sim.devices[0].table}
    assert {"WENOx", "Update", "ComputeDt"} <= names


def test_coords_file_ablation_runs():
    case = SodShockTube(32)
    sim = Crocco(case, CroccoConfig(version="1.1", max_grid_size=32,
                                    coords_source="file"))
    sim.initialize()
    sim.run(1)
    assert sim.profiler.total("getCoords_fileIO") > 0.0
    sim.close()


def test_coords_file_is_read_per_new_patch_of_a_remake():
    """``coords_source = file`` reads the coordinates of every *new* patch
    back from disk; a box the regrid keeps takes its old fab's."""
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(
        version="2.1", nranks=3, max_level=2, max_grid_size=16,
        blocking_factor=8, regrid_int=1, coords_source="file"))
    sim.initialize()

    def boxes(lev):
        ba = sim.box_arrays[lev] if lev <= sim.finest_level else None
        return set() if ba is None else {b.tobytes() for b in ba.lohi}

    kept = 0
    for _ in range(4):
        before = [boxes(lev) for lev in range(3)]
        reads = sim.profiler.calls("getCoords_fileIO")
        sim.step()
        after = [boxes(lev) for lev in range(3)]
        remade = [lev for lev in range(3) if after[lev] != before[lev]]
        kept += sum(len(after[lev] & before[lev]) for lev in remade)
        new = sum(len(after[lev] - before[lev]) for lev in remade)
        assert sim.profiler.calls("getCoords_fileIO") - reads == new
    assert kept > 0, "no remake kept a box"
    sim.close()


def test_invalid_config_rejected():
    case = SodShockTube(32)
    from repro.core.errors import ConfigError

    for bad in (dict(coords_source="network"), dict(interpolator="spectral"),
                dict(version="9.9"), dict(weno_variant="weno9"),
                dict(tagging="vorticity")):
        with pytest.raises(ConfigError, match=next(iter(bad.values()))):
            Crocco(case, CroccoConfig(**bad))


def test_vortex_amr_preserves_accuracy():
    """AMR on a smooth vortex: solution stays close to the uniform run."""
    t_end = 0.2
    case = IsentropicVortex(ncells=32)
    uni = Crocco(case, CroccoConfig(version="1.1", max_grid_size=32))
    uni.initialize()
    while uni.time < t_end:
        uni.step()
    case2 = IsentropicVortex(ncells=32)
    case2.tag_threshold = 0.01
    amr = Crocco(case2, CroccoConfig(version="1.2", max_level=1,
                                     max_grid_size=32, blocking_factor=4,
                                     regrid_int=4, interpolator="conservative"))
    amr.initialize()
    assert amr.finest_level == 1
    while amr.time < t_end:
        amr.step()
    # both should track the exact solution
    for sim, c in ((uni, case), (amr, case2)):
        errs = []
        for i, fab in sim.state[0]:
            coords = sim.coords[0].fab(i).valid()
            exact = c.exact_solution(coords, sim.time)
            errs.append(np.abs(fab.valid()[0] - exact[0]).max())
        assert max(errs) < 0.05


def test_per_rank_gpu_devices():
    """Summit runs one rank per GPU: each rank gets its own device arena."""
    case = SodShockTube(64)
    sim = Crocco(case, CroccoConfig(version="2.0", nranks=2, ranks_per_node=2,
                                    max_grid_size=32,
                                    backend_target="device"))
    sim.initialize()
    assert len(sim.devices) == 2
    # both ranks own one 32-cell box: identical residency
    assert sim.devices[0].bytes_in_use == sim.devices[1].bytes_in_use > 0
    sim.run(1)
    # kernel launches land on the owning rank's device
    assert sim.devices[0].table.total() > 0
    assert sim.devices[1].table.total() > 0


def test_host_target_has_no_devices():
    sim = Crocco(SodShockTube(32), CroccoConfig(version="1.1", max_grid_size=32,
                                                backend_target="host"))
    assert not sim.devices


def test_device_memory_freed_on_level_clear():
    from repro.cases.dmr import DoubleMachReflection

    case = DoubleMachReflection(ncells=(64, 16))
    sim = Crocco(case, CroccoConfig(version="2.0", nranks=2, ranks_per_node=2,
                                    max_level=1, max_grid_size=32,
                                    regrid_int=1, backend_target="device"))
    sim.initialize()
    used_before = sum(d.bytes_in_use for d in sim.devices)
    assert used_before > 0
    # force the fine level away (no tags)
    import numpy as np

    sim.error_est = lambda lev: np.empty((0, 2), dtype=np.int64)
    sim.regrid()
    used_after = sum(d.bytes_in_use for d in sim.devices)
    assert sim.finest_level == 0
    assert used_after < used_before


def test_mixed_precision_driver_run():
    """The paper's mixed-precision future-work mode runs end to end."""
    from dataclasses import replace

    case = SodShockTube(64)
    sim = Crocco(case, CroccoConfig(version="2.0", max_grid_size=64))
    sim.kernels = replace(sim.kernels, precision="mixed")
    sim.initialize()
    sim.run(5)
    assert not sim.state[0].contains_nan()
    with pytest.raises(ValueError):
        replace(sim.kernels, precision="half")


def test_dmr_3d_runs_with_periodic_spanwise():
    """The paper solves the DMR in 3D with a spanwise-homogeneous z
    direction; a short 3D run must stay spanwise-uniform and stable."""
    case = DoubleMachReflection(ncells=(32, 8, 8))
    sim = Crocco(case, CroccoConfig(version="1.1", max_grid_size=32))
    sim.initialize()
    sim.run(3)
    assert not sim.state[0].contains_nan()
    for i, fab in sim.state[0]:
        v = fab.valid()
        # spanwise homogeneity is preserved exactly (no z-variation in IC
        # or BCs, periodic z)
        assert np.allclose(v[..., 0], v[..., -1])
    mn, mx = sim.min_max(0)
    assert mn > 1.0 and mx > 7.0


def test_auto_regrid_interval():
    """regrid_int="auto" derives the cadence from the CFL condition."""
    case = DoubleMachReflection(ncells=(64, 16))
    sim = Crocco(case, CroccoConfig(version="1.2", max_level=1,
                                    max_grid_size=32, regrid_int="auto"))
    sim.initialize()
    interval = sim.regrid_interval()
    # smallest fine patch is >= blocking_factor=8 cells: interval >= (4-1)/0.5
    assert interval >= 3
    regrids_before = sim.profiler.calls("Regrid")
    sim.run(interval + 1)
    assert sim.profiler.calls("Regrid") >= regrids_before + 1
    # fixed interval still honored
    sim2 = Crocco(DoubleMachReflection(ncells=(64, 16)),
                  CroccoConfig(version="1.2", max_level=1, max_grid_size=32,
                               regrid_int=3))
    assert sim2.regrid_interval() == 3


@pytest.mark.parametrize("deck, level0_bytes", [
    ("dmr.inputs", 256_000),  # 4 grown 40x40 boxes, 5 components
    ("dmr3d.inputs", 983_040),  # 2 grown 24x16x16 boxes, 10 components
])
def test_a_curvilinear_level_stores_m_and_J_only(deck, level0_bytes):
    """A curvilinear level's metrics are one MultiFab of ``dim^2 + 1``
    components (``m[d, j]``, then ``J``) on the level's groups, and its
    batches' metrics are views of its group arrays: a level stores no
    other metric array.  A Cartesian level stores none."""
    from pathlib import Path

    from repro.amr.boxarray import num_pts
    from repro.cli import build_case
    from repro.io.inputs import InputDeck

    path = Path(__file__).parents[2] / "examples" / "decks" / deck
    config, run = InputDeck.from_file(str(path)).resolve({})
    sim = Crocco(build_case(run), config)
    sim.initialize()
    dim = sim.case.layout.dim
    assert sim.metrics[0].buffer.nbytes == level0_bytes
    for lev in range(sim.finest_level + 1):
        metrics = sim.metrics[lev]
        assert metrics.ncomp == dim * dim + 1
        assert metrics.groups == sim.state[lev].groups
        assert metrics.buffer.nbytes == 8 * (dim * dim + 1) * int(
            num_pts(metrics.grown).sum())
        for batch in sim.batches[lev]:
            assert batch.metrics.arr is metrics.arrays[batch.group]
            assert batch.metrics.jacobian().base is metrics.buffer
            assert all(batch.metrics.m(d).base is metrics.buffer
                       for d in range(dim))
    sim.close()
    _, sod = run_sod(t_end=0.0)
    assert sod.metrics == {}
