"""Target-registry API: registration, resolution, LaunchSpec contract."""

import numpy as np
import pytest

from repro.backend import (HostBackend, LaunchSpec, UnknownTargetError,
                           available_targets, make_exec_backend,
                           register_target, unregister_target)
from repro.core.errors import ConfigError

ALL_TARGETS = ("host", "device", "fused")


class TestRegistry:
    def test_builtin_targets_registered(self):
        targets = available_targets()
        for name in ALL_TARGETS:
            assert name in targets

    def test_targets_constant_derived_from_registry(self):
        import repro.backend
        import repro.backend.launch

        assert repro.backend.TARGETS == available_targets()
        assert repro.backend.launch.TARGETS == available_targets()
        register_target("tmp_derived", lambda devices=None: HostBackend())
        try:
            assert "tmp_derived" in repro.backend.TARGETS
        finally:
            unregister_target("tmp_derived")
        assert "tmp_derived" not in repro.backend.TARGETS

    def test_make_exec_backend_goes_through_registry(self):
        for name in ALL_TARGETS:
            assert make_exec_backend(name).target == name

    def test_register_and_construct_custom_target(self):
        class Tracer(HostBackend):
            target = "tracer"

        register_target("tracer", lambda devices=None: Tracer())
        try:
            be = make_exec_backend("tracer")
            assert isinstance(be, Tracer)
            assert "tracer" in available_targets()
        finally:
            unregister_target("tracer")

    def test_duplicate_registration_rejected_unless_override(self):
        register_target("tmp_dup", lambda devices=None: HostBackend())
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_target("tmp_dup", lambda devices=None: HostBackend())
            # override replaces the factory in place
            class Other(HostBackend):
                target = "tmp_dup"

            register_target("tmp_dup", lambda devices=None: Other(),
                            override=True)
            assert isinstance(make_exec_backend("tmp_dup"), Other)
        finally:
            unregister_target("tmp_dup")

    def test_auto_name_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            register_target("auto", lambda devices=None: HostBackend())

    def test_unknown_target_error_lists_registered_names(self):
        with pytest.raises(UnknownTargetError) as exc:
            make_exec_backend("cuda")
        msg = str(exc.value)
        for name in ALL_TARGETS:
            assert name in msg


class TestTargetOption:
    """The config's target is checked by the option table, which knows
    the registry; ``auto`` resolves to the version's own target."""

    def test_auto_resolves_to_version_default(self):
        from repro.cases.shocktube import SodShockTube
        from repro.core.crocco import Crocco, CroccoConfig

        for version, target in (("1.1", "host"), ("2.0", "device")):
            sim = Crocco(SodShockTube(ncells=32), CroccoConfig(
                version=version, max_grid_size=32, backend_target="auto"))
            assert sim.backend_target == target
            sim.close()

    def test_registered_plugin_target_is_a_legal_choice(self):
        from repro.core.crocco import CroccoConfig

        register_target("tmp_plugin", lambda devices=None: HostBackend())
        try:
            CroccoConfig(backend_target="tmp_plugin").validate()
        finally:
            unregister_target("tmp_plugin")
        with pytest.raises(ConfigError, match="tmp_plugin"):
            CroccoConfig(backend_target="tmp_plugin").validate()

    def test_crocco_reports_config_error(self):
        from repro.cases.shocktube import SodShockTube
        from repro.core.crocco import Crocco, CroccoConfig

        case = SodShockTube(ncells=32)
        with pytest.raises(ConfigError, match="backend.target"):
            Crocco(case, CroccoConfig(version="1.1", max_grid_size=32,
                                      backend_target="cuda"))

    def test_cli_bad_backend_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        deck = tmp_path / "inputs"
        deck.write_text("crocco.case = sod\namr.n_cell = 32\n"
                        "amr.max_grid_size = 32\nrun.steps = 1\n")
        rc = main([str(deck), "--backend", "cuda"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "cuda" in err


class TestLaunchSpecContract:
    @pytest.mark.parametrize("target", ALL_TARGETS)
    def test_spec_accepted_by_all_targets(self, target):
        be = make_exec_backend(target)
        spec = LaunchSpec(kernel_class="flux", rank=0, shape=(5, 8, 8))
        out = be.parallel_for("WENOx", lambda: 42, 64, spec)
        assert out == 42
        red = be.reduce_data("ComputeDt", np.arange(6.0), "max",
                             LaunchSpec(kernel_class="reduction"))
        assert red == 5.0

    @pytest.mark.parametrize("kwarg", ["grid_size", "kernel_class", "rank"])
    def test_spec_is_the_whole_contract(self, kwarg):
        """No keyword besides ``spec`` is accepted — the historical loose
        launch keywords included."""
        be = make_exec_backend("host")
        with pytest.raises(TypeError, match=kwarg):
            be.parallel_for("K", lambda: 1, 1, **{kwarg: 0})
        with pytest.raises(TypeError, match=kwarg):
            be.reduce_data("R", np.arange(3.0), "min", **{kwarg: 0})

    def test_device_target_records_spec_fields(self):
        from repro.kernels.device import GpuDevice

        dev = GpuDevice(name="t")
        be = make_exec_backend("device", [dev])
        be.parallel_for("WENOx", lambda: None, 100,
                        LaunchSpec(kernel_class="flux", rank=0,
                                   shape=(5, 10, 10)))
        assert dev.table.total() == 1
        assert be.class_totals()["flux"]["points"] == 100
