"""The target table, the ``backend.target`` option and the LaunchSpec
contract."""

from dataclasses import fields

import numpy as np
import pytest

from repro.backend import TARGETS, LaunchSpec, make_exec_backend
from repro.core.errors import ConfigError
from repro.kernels.counts import budget_for_kernel

ALL_TARGETS = ("host", "device", "fused")


class TestRegistry:
    """The target table: three names, each a class ``make_exec_backend``
    looks up."""

    def test_builtin_targets_registered(self):
        assert tuple(TARGETS) == ALL_TARGETS

    def test_make_exec_backend_goes_through_registry(self):
        for name in ALL_TARGETS:
            be = make_exec_backend(name)
            assert type(be) is TARGETS[name] and be.target == name

    def test_unknown_target_error_lists_registered_names(self):
        with pytest.raises(ValueError) as exc:
            make_exec_backend("cuda")
        msg = str(exc.value)
        for name in ALL_TARGETS:
            assert name in msg


class TestTargetOption:
    """The config's target is checked by the option table, whose choices
    are ``auto`` and the target table; ``auto`` resolves to the version's
    own target."""

    def test_auto_resolves_to_version_default(self):
        from repro.cases.shocktube import SodShockTube
        from repro.core.crocco import Crocco, CroccoConfig

        for version, target in (("1.1", "host"), ("2.0", "device")):
            sim = Crocco(SodShockTube(ncells=32), CroccoConfig(
                version=version, max_grid_size=32, backend_target="auto"))
            assert sim.backend_target == target
            sim.close()

    def test_choices_are_auto_and_the_three_targets(self):
        from repro.core.config import BY_NAME
        from repro.core.crocco import CroccoConfig

        assert tuple(BY_NAME["backend_target"].legal()) == (
            "auto", *ALL_TARGETS)
        for name in ("auto", *ALL_TARGETS):
            CroccoConfig(backend_target=name).validate()

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
        spec = LaunchSpec(kernel_class="flux", rank=0)
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

    def test_spec_is_a_class_and_a_rank(self):
        """A class, a rank and the scratch the launch holds: the cost of a
        launch is not part of the contract, it follows from the name."""
        assert [f.name for f in fields(LaunchSpec)] == [
            "kernel_class", "rank", "scratch"]

    def test_device_target_records_spec_fields(self):
        from repro.kernels.device import GpuDevice

        dev = GpuDevice(name="t")
        be = make_exec_backend("device", [dev])
        be.parallel_for("WENOx", lambda: None, 100,
                        LaunchSpec(kernel_class="flux", rank=0))
        assert dev.table.total() == 1
        assert be.class_totals()["flux"]["points"] == 100
        assert list(dev.table) == [("WENOx", 100, "flux")]
        assert be.class_totals()["flux"]["flops"] == int(
            100 * budget_for_kernel("WENOx").flops_per_point)
