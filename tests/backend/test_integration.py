"""End-to-end execution-backend integration: DMR trajectory parity,
per-step Algorithm-2 phase coverage, config plumbing."""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.backend import ExecutionBackend
from repro.cases.dmr import DoubleMachReflection
from repro.cli import build_case
from repro.core.crocco import Crocco, CroccoConfig
from repro.io.inputs import InputDeck
from repro.kernels.counts import budget_for_kernel
from repro.kernels.device import launch_totals

DMR_DECK = Path(__file__).resolve().parents[2] / "examples/decks/dmr.inputs"

#: Algorithm-2 phases every v2.x step must emit labeled launches for
#: (Viscous is absent on the inviscid DMR; covered separately below)
STEP_PHASES = {
    "flux": ("WENOx", "WENOy"),
    "update": ("Update",),
    "fillpatch": ("FB_pack", "FB_unpack", "BC_fill"),
    "interp": ("Interp_",),
    "averagedown": ("AverageDown",),
    "reduction": ("ComputeDt",),
}


def make_sim(version="2.1", backend_target="auto", max_level=1):
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    return Crocco(case, CroccoConfig(
        version=version, nranks=6, ranks_per_node=6, max_level=max_level,
        max_grid_size=32, blocking_factor=8, regrid_int=2,
        backend_target=backend_target))


def run_dmr(steps=3, **kwargs):
    sim = make_sim(**kwargs)
    sim.initialize()
    sim.run(steps)
    state = {(lev, i): fab.whole().copy()
             for lev in range(sim.finest_level + 1)
             for i, fab in sim.state[lev]}
    launches = [Counter(d.table) for d in sim.devices]   # one per rank
    totals = sim.exec_backend.class_totals()
    sim.close()
    return state, launches, totals


class TestTrajectoryParity:
    def test_host_vs_device_bitwise(self):
        """The device target wraps identical arithmetic: the v2.1 DMR
        trajectory must match the host target bit for bit."""
        h_state, h_launches, h_totals = run_dmr(backend_target="host")
        d_state, d_launches, d_totals = run_dmr(backend_target="device")
        assert set(h_state) == set(d_state)
        for k in h_state:
            assert np.array_equal(h_state[k], d_state[k]), f"mismatch {k}"
        # host target records nothing; device records everything
        assert h_launches == [] and h_totals == {}
        assert all(table for table in d_launches) and d_totals


class TestPhaseCoverage:
    def test_every_algorithm2_phase_launches_each_step(self, launch_log):
        """Under the device target every Algorithm-2 phase emits at least
        one labeled launch record per step."""
        sim = make_sim(backend_target="device")
        sim.initialize()
        devices = sim.devices
        for step in range(3):
            before = sum(d.table.total() for d in devices)
            mark = len(launch_log.events)
            sim.step()
            new = launch_log.events[mark:]
            assert sum(d.table.total() for d in devices) == before + len(new)
            assert new
            names = [rec.name for rec in new]
            by_class = {rec.name: rec.kernel_class for rec in new}
            for cls, prefixes in STEP_PHASES.items():
                for p in prefixes:
                    matched = [n for n in names if n.startswith(p)]
                    assert matched, f"step {step}: no {p} launch"
                    assert by_class[matched[0]] == cls
        sim.close()

    def test_launch_records_cover_the_analytic_core_work(self):
        """The core kernels sweep exactly the active cells: per step, 3 RK
        stages x (one flux sweep per direction + one update) plus the
        ComputeDt reduction, per cell.  The substrate phases have no
        closed-form point count, so they enter both sides as recorded:
        ``coverage = recorded / (recorded - recorded_core + analytic_core)``
        is 1.0 when every core kernel went through the launch seam."""
        sim = make_sim(backend_target="device")
        sim.initialize()
        sweeps = sim.case.layout.dim  # inviscid: no Viscous sweep
        analytic_core = 0
        for _ in range(4):
            sim.step()
            # regrid happens at step start, so the post-step hierarchy is
            # the one this step's kernels swept
            cells = sum(sim.box_arrays[lev].num_pts()
                        for lev in range(sim.finest_level + 1))
            analytic_core += cells * (3 * (sweeps + 1) + 1)
        totals = sim.exec_backend.class_totals()
        sim.close()
        recorded = sum(t["points"] for t in totals.values())
        rec_core = sum(totals[c]["points"]
                       for c in ("flux", "update", "reduction"))
        coverage = recorded / (recorded - rec_core + analytic_core)
        assert coverage >= 0.95, f"launches cover only {coverage:.1%}"
        assert np.isclose(rec_core, analytic_core, rtol=0.05), (
            f"recorded core {rec_core} vs analytic {analytic_core}")

    def test_viscous_phase_launches(self):
        """A case with a viscous flux emits labeled Viscous launches."""
        from repro.cases.reacting import IgnitionFront

        case = IgnitionFront(ncells=64)
        sim = Crocco(case, CroccoConfig(version="1.1", max_grid_size=64,
                                        backend_target="device"))
        sim.initialize()
        sim.run(2)
        names = {rec.name for d in sim.devices for rec in d.table}
        sim.close()
        assert "Viscous" in names

    def test_devices_belong_to_the_execution_backend(self):
        """One device list per run, one per rank, owned by the target."""
        sim = make_sim(version="2.1", backend_target="auto")
        assert sim.devices is sim.exec_backend.devices
        assert sim.kernels.exec_backend is sim.exec_backend
        assert len(sim.devices) == sim.comm.nranks
        sim.close()


class TestSeamAccounting:
    def test_seam_calls_are_the_recorded_launches(self, launch_log,
                                                  monkeypatch):
        """Two steps of the DMR deck on ``device``: each ``parallel_for``
        call is one recorded launch — ComputeDt's, one ``reduction``
        launch per owning rank of each batch and step, included — no
        ``reduce_data`` call is made (it is the ReduceData of values
        ``test_primitives`` checks), and every launch is priced by its
        name.  The benchmark's untraced estimator cuts a step at
        ``parallel_for`` and the report reads the records, so both see the
        same launches."""
        config, run = InputDeck.from_file(DMR_DECK).resolve(
            {"backend_target": "device"})
        sim = Crocco(build_case(run), config)
        sim.initialize()
        mark = len(launch_log.pairs)
        calls = Counter()
        for hook in ("parallel_for", "reduce_data"):
            def counted(self, *args, _real=getattr(ExecutionBackend, hook),
                        _hook=hook, **kwargs):
                calls[_hook] += 1
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(ExecutionBackend, hook, counted)
        sim.run(2)  # a regrid in the first step only: one set of batches
        sim.close()
        run = launch_log.pairs[mark:]
        assert calls["parallel_for"] == len(run) > 0
        assert calls["reduce_data"] == 0
        owners = Counter()
        for lev, batches in sim.batches.items():
            for b in batches:
                npts = sim.du[lev].arrays[b.group][0, 0].size
                for rank, n in Counter(b.ranks).items():
                    owners[rank, ("ComputeDt", n * npts, "reduction")] += 2
        assert Counter((sim.devices.index(dev), tuple(rec))
                       for dev, rec in run
                       if rec.kernel_class == "reduction") == owners
        flops = Counter()
        for rec in launch_log.events:
            flops[rec.name] += int(
                rec.npoints * budget_for_kernel(rec.name).flops_per_point)
        assert {name: tot["flops"] for name, tot in launch_totals(
            sim.devices).items()} == flops


class TestConfigPlumbing:
    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "device")
        cfg = CroccoConfig(version="1.1")
        assert cfg.backend_target == "device"

    def test_env_absent_defaults_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        cfg = CroccoConfig(version="1.1")
        assert cfg.backend_target == "auto"

    def test_deck_key(self):
        deck = InputDeck.parse(
            "crocco.version = 1.1\n"
            "backend.target = device\n"
        )
        assert deck.to_crocco_config().backend_target == "device"

    def test_auto_follows_version(self):
        case = DoubleMachReflection(ncells=(64, 16))
        cpu = Crocco(case, CroccoConfig(version="1.1", max_grid_size=32,
                                        backend_target="auto"))
        assert cpu.kernels.exec_backend.target == "host"
        cpu.close()
        gpu = make_sim(version="2.0", backend_target="auto")
        assert gpu.kernels.exec_backend.target == "device"
        gpu.close()

    def test_forced_device_on_cpu_version(self):
        """v1.x forced onto the device target is a full device run —
        launches *and* memory — with its arithmetic ordering unchanged."""
        case = DoubleMachReflection(ncells=(64, 16))
        sim = Crocco(case, CroccoConfig(version="1.1", max_grid_size=32,
                                        backend_target="device"))
        assert sim.kernels.ordering == "cpp"
        assert sim.kernels.exec_backend.target == "device"
        sim.initialize()
        sim.step()
        assert any(d.table for d in sim.devices)
        assert all(d.bytes_in_use > 0 for d in sim.devices)
        sim.close()

    def test_forced_host_on_gpu_version(self):
        """v2.x forced onto host has no devices: nothing is recorded and
        nothing is charged."""
        sim = make_sim(version="2.0", backend_target="host")
        sim.initialize()
        sim.step()
        assert not sim.devices
        assert sim.exec_backend.class_totals() == {}
        sim.close()

    def test_bad_target_raises(self):
        case = DoubleMachReflection(ncells=(64, 16))
        with pytest.raises(ValueError, match="backend.target"):
            Crocco(case, CroccoConfig(version="1.1", max_grid_size=32,
                                      backend_target="cuda"))
