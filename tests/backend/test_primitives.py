"""Execution-backend primitives: host/device parity, class totals, context."""

import time

import numpy as np
import pytest

from repro.backend import (DeviceBackend, HostBackend, LaunchSpec,
                           current_backend, make_exec_backend, use_backend)
from repro.kernels.counts import (BUDGETS, FILLBOUNDARY_BUDGET, INTERP_BUDGET,
                                  UPDATE_BUDGET, WENO_BUDGET,
                                  budget_for_kernel)
from repro.kernels.device import (DeviceMemoryError, GpuDevice, LaunchRecord,
                                  launch_totals)
from repro.observability.tracer import Tracer
from tests.conftest import trace_events


class TestHostBackend:
    def test_no_devices_and_reservations_are_noops(self):
        host = HostBackend()
        assert not host.devices
        host.reserve(1 << 60)
        host.release(1 << 60)

    def test_parallel_for_runs_body(self):
        host = HostBackend()
        out = host.parallel_for("K", lambda: np.arange(4.0) * 2, 4)
        np.testing.assert_array_equal(out, [0.0, 2.0, 4.0, 6.0])

    def test_reduce_ops_bitwise(self):
        host = HostBackend()
        rng = np.random.default_rng(7)
        v = rng.standard_normal(257)
        assert host.reduce_data("R", v, "max") == float(np.max(v))
        assert host.reduce_data("R", v, "min") == float(np.min(v))
        assert host.reduce_data("R", v, "sum") == float(np.sum(v))

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError, match="unknown reduction op"):
            HostBackend().reduce_data("R", np.ones(3), "prod")

    def test_no_accounting(self):
        host = HostBackend()
        host.parallel_for("K", lambda: None, 10)
        assert host.class_totals() == {}


class TestDeviceBackend:
    def test_parallel_for_matches_host_bitwise(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 8))
        body = lambda: np.sin(a) * np.exp(a)  # noqa: E731
        host_out = HostBackend().parallel_for("K", body, a.size)
        dev_out = DeviceBackend([GpuDevice()]).parallel_for("K", body, a.size)
        np.testing.assert_array_equal(host_out, dev_out)

    def test_reduce_matches_host_bitwise(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(1000)
        for op in ("min", "max", "sum"):
            h = HostBackend().reduce_data("R", v, op)
            d = DeviceBackend([GpuDevice()]).reduce_data("R", v, op)
            assert h == d

    def test_launch_recorded_with_class_and_budget(self):
        dev = GpuDevice()
        be = DeviceBackend([dev])
        be.parallel_for("WENOx", lambda: None, 100,
                        LaunchSpec(kernel_class="flux"))
        (rec, count), = dev.table.items()
        assert count == 1
        assert rec.name == "WENOx"
        assert rec.kernel_class == "flux"
        assert rec.npoints == 100
        assert rec == ("WENOx", 100, "flux")
        assert launch_totals([dev])["WENOx"]["flops"] == int(
            100 * WENO_BUDGET.flops_per_point)

    def test_counters_accumulate_by_class(self):
        be = DeviceBackend([GpuDevice()])
        be.parallel_for("FB_pack", lambda: None, 10,
                        LaunchSpec(kernel_class="fillpatch"))
        be.parallel_for("FB_unpack", lambda: None, 10,
                        LaunchSpec(kernel_class="fillpatch"))
        be.reduce_data("ComputeDt", np.ones(5), "max")
        snap = be.class_totals()
        assert snap["fillpatch"]["launches"] == 2
        assert snap["fillpatch"]["points"] == 20
        assert snap["reduction"]["launches"] == 1

    def test_rank_selects_device(self):
        devs = [GpuDevice(name="d0"), GpuDevice(name="d1")]
        be = DeviceBackend(devs)
        be.parallel_for("K", lambda: None, 1, LaunchSpec(rank=1))
        be.parallel_for("K", lambda: None, 1, LaunchSpec(rank=3))
        assert devs[0].table.total() == 0
        assert devs[1].table.total() == 2

    def test_reserve_charges_the_ranks_device_and_release_returns_it(self):
        devs = [GpuDevice(name="d0"), GpuDevice(name="d1", memory_bytes=4096)]
        be = DeviceBackend(devs)
        be.reserve(1024, rank=1)
        assert (devs[0].bytes_in_use, devs[1].bytes_in_use) == (0, 1024)
        with pytest.raises(DeviceMemoryError):
            be.reserve(4096, rank=1)
        be.release(1024, rank=1)
        assert devs[1].bytes_in_use == 0
        assert devs[1].high_water == 1024


class TestBudgetResolution:
    def test_exact_then_prefix_then_fallback(self):
        assert budget_for_kernel("WENOx") is BUDGETS["WENO"]
        assert budget_for_kernel("WENOz") is BUDGETS["WENO"]
        assert budget_for_kernel("Viscous") is BUDGETS["Viscous"]
        assert budget_for_kernel("FB_pack") is FILLBOUNDARY_BUDGET
        assert budget_for_kernel("Interp_trilinear") is INTERP_BUDGET
        assert budget_for_kernel("SomethingNew") is UPDATE_BUDGET

    def test_copy_budgets_have_nonzero_flops(self):
        # zero flops/pt would make the roofline arithmetic intensity
        # degenerate; copies are priced with a small nonzero budget
        for name in ("FB_pack", "PC_copy", "BC_fill"):
            assert budget_for_kernel(name).flops_per_point > 0


class TestCurrentBackendContext:
    def test_default_is_host(self):
        assert current_backend().target == "host"

    def test_use_backend_restores_on_exit(self):
        be = DeviceBackend([GpuDevice()])
        with use_backend(be):
            assert current_backend() is be
        assert current_backend().target == "host"

    def test_use_backend_nests(self):
        outer = DeviceBackend([GpuDevice()])
        inner = HostBackend()
        with use_backend(outer):
            with use_backend(inner):
                assert current_backend() is inner
            assert current_backend() is outer

    def test_restores_on_exception(self):
        be = DeviceBackend([GpuDevice()])
        with pytest.raises(RuntimeError):
            with use_backend(be):
                raise RuntimeError("boom")
        assert current_backend().target == "host"

    def test_free_functions_dispatch_to_current(self, launch_log):
        dev = GpuDevice()
        with use_backend(DeviceBackend([dev])):
            out = current_backend().parallel_for(
                "K", lambda: 42, 7, LaunchSpec(kernel_class="update"))
        assert out == 42
        assert [rec.name for rec in launch_log.events] == ["K"]


class TestMakeExecBackend:
    def test_targets(self):
        assert make_exec_backend("host").target == "host"
        dev = GpuDevice()
        be = make_exec_backend("device", [dev])
        assert be.target == "device"
        assert be.devices == [dev]

    def test_unknown_target_raises(self):
        with pytest.raises(ValueError, match="unknown backend target"):
            make_exec_backend("cuda")


class SlowTracer(Tracer):
    """A tracer whose every span write takes ``delay`` seconds."""

    def __init__(self, delay):
        super().__init__()
        self.delay = delay

    def complete(self, *args, **kwargs):
        super().complete(*args, **kwargs)
        time.sleep(self.delay)


class TestSpanOutsideTimedWindow:
    def test_slow_tracer_does_not_inflate_wall_time(self):
        """The kernel span is written after the perf_counter window: a
        50 ms span write must not appear in the kernel's wall time."""
        dev = GpuDevice()
        dev.tracer = SlowTracer(0.05)
        for _ in range(3):
            dev.run(LaunchRecord("K", 10), lambda: None)
        DeviceBackend([dev]).reduce_data("R", np.ones(4), op="sum")
        assert dev.table[LaunchRecord("R", 4, "reduction")] == 1
        spans = trace_events(dev.tracer)
        assert len(spans) == 4
        assert all(e["dur"] < 0.04e6 for e in spans)
