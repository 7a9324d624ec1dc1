"""Tests for the simulated GPU device."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.backend import DeviceBackend, LaunchSpec
from repro.kernels.counts import COMPUTEDT_BUDGET, UPDATE_BUDGET, WENO_BUDGET
from repro.kernels.device import (
    DeviceMemoryError,
    GpuDevice,
    LaunchRecord,
    V100_MEMORY_BYTES,
    launch_totals,
)
from repro.machine.gpu import V100Model


def test_default_is_v100_capacity():
    dev = GpuDevice()
    assert dev.memory_bytes == V100_MEMORY_BYTES == 16 * 1024**3


def arena(memory_bytes):
    """A device target over one device: its memory is charged through
    ``reserve`` / ``release``, the one memory primitive."""
    dev = GpuDevice(memory_bytes=memory_bytes)
    return DeviceBackend([dev]), dev


def test_alloc_free_accounting():
    backend, dev = arena(1000)
    backend.reserve(80)
    assert dev.bytes_in_use == 80
    backend.reserve(40)
    assert dev.bytes_in_use == 120
    backend.release(80)
    assert dev.bytes_in_use == 40
    backend.release(40)
    assert dev.bytes_in_use == 0
    assert dev.high_water == 120


def test_capacity_enforced():
    backend, dev = arena(100)
    backend.reserve(80)
    with pytest.raises(DeviceMemoryError):
        backend.reserve(80)
    # a refused reservation charges nothing
    assert dev.bytes_in_use == 80


def test_launch_records_and_returns():
    """A record is what ran; its flops and bytes are priced by its name."""
    dev = GpuDevice()
    out = dev.run(LaunchRecord("WENOx", 1000), lambda: np.ones(3))
    assert np.all(out == 1.0)
    assert dict(dev.table) == {LaunchRecord("WENOx", 1000, "flux"): 1}
    tot = launch_totals([dev])["WENOx"]
    assert tot["flops"] == 600000
    assert tot["dram_bytes"] == 400000
    assert tot["l2_bytes"] == 720000
    assert tot["l1_bytes"] == 1800000
    assert tot["seconds"] == V100Model().kernel_time(WENO_BUDGET, 1000)


def test_untraced_launch_reads_no_clock(monkeypatch):
    """Only a traced launch is timed: without a tracer, ``run`` pays one
    ``None`` check and no clock read."""
    import repro.kernels.device as device

    def no_clock():
        raise AssertionError("clock read by an untraced launch")

    monkeypatch.setattr(device, "time", SimpleNamespace(perf_counter=no_clock))
    dev = GpuDevice()
    assert dev.run(LaunchRecord("WENOx", 10), lambda: 7) == 7
    assert dev.table.total() == 1


def test_reduce():
    backend, dev = arena(V100_MEMORY_BYTES)
    assert backend.reduce_data("ComputeDt", np.array([3.0, 1.0, 2.0]),
                               "min") == 1.0
    assert backend.reduce_data("ComputeDt", np.array([3.0, 1.0]), "max") == 3.0
    assert backend.reduce_data("ComputeDt", np.array([3.0, 1.0]), "sum") == 4.0
    with pytest.raises(ValueError):
        backend.reduce_data("ComputeDt", np.array([1.0]), "prod")
    assert dev.table.total() == 3
    assert dev.table[LaunchRecord("ComputeDt", 2, "reduction")] == 2
    # a reduction whose body is bound elsewhere (ComputeDt's rate) is a
    # ``reduction``-class launch of its points
    assert backend.parallel_for("R", lambda: 2.0, 5,
                                LaunchSpec("reduction")) == 2.0
    assert dev.table[LaunchRecord("R", 5, "reduction")] == 1
    # a reduction is priced by its name's budget, as every launch
    tot = launch_totals([dev])["ComputeDt"]
    assert (tot["flops"], tot["dram_bytes"]) == (
        7 * COMPUTEDT_BUDGET.flops_per_point,
        7 * COMPUTEDT_BUDGET.dram_bytes_per_point)


def test_totals_and_by_kernel():
    dev = GpuDevice()
    dev.run(LaunchRecord("WENOx", 10), lambda: None)
    dev.run(LaunchRecord("WENOx", 10), lambda: None)
    dev.run(LaunchRecord("Update", 5, "update"), lambda: None)
    by_kernel = launch_totals([dev])
    assert set(by_kernel) == {"WENOx", "Update"}
    model = V100Model()
    assert by_kernel["WENOx"] == {
        "launches": 2, "points": 20, "flops": 12000, "dram_bytes": 8000,
        "l2_bytes": 14400, "l1_bytes": 36000,
        "seconds": 2 * model.kernel_time(WENO_BUDGET, 10), "registers": 255}
    assert by_kernel["Update"]["dram_bytes"] == 5 * 120
    assert by_kernel["Update"]["registers"] == UPDATE_BUDGET.registers_per_thread
    # identical launches share one row
    assert len(dev.table) == 2 and dev.table.total() == 3
    assert sum(t["points"] for t in by_kernel.values()) == 25
    assert launch_totals([dev], "kernel_class")["update"] == by_kernel["Update"]
    dev.table.clear()
    assert launch_totals([dev]) == {}


def test_double_free_detection():
    backend, dev = arena(1000)
    backend.reserve(100)
    backend.release(100)
    with pytest.raises(RuntimeError):
        backend.release(100)
    # a refused release frees nothing
    assert dev.bytes_in_use == 0


def test_launch_scratch_is_held_while_it_runs():
    backend, dev = arena(1000)
    backend.reserve(300)
    seen = []
    backend.parallel_for("WENOx", lambda: seen.append(dev.bytes_in_use), 10,
                         LaunchSpec(scratch=500))
    # held, not allocated: the arena reads its resident bytes throughout
    assert seen == [300] and dev.bytes_in_use == 300
    assert dev.high_water == 800


def test_launch_scratch_over_capacity_is_refused_before_it_runs():
    backend, dev = arena(1000)
    backend.reserve(300)
    ran = []
    with pytest.raises(DeviceMemoryError):
        backend.parallel_for("WENOx", lambda: ran.append(1), 10,
                             LaunchSpec(scratch=701))
    assert ran == [] and not dev.table
    assert dev.bytes_in_use == dev.high_water == 300


def test_launch_totals_price_charged_seconds():
    dev = GpuDevice()
    for name in ("WENOx", "WENOx", "Update"):
        dev.run(LaunchRecord(name, 50_000), lambda: None)
    t = launch_totals([dev])
    assert set(t) == {"WENOx", "Update"}
    assert {name: tot["launches"] for name, tot in t.items()} == {
        "WENOx": 2, "Update": 1}
    m = V100Model()

    assert t["WENOx"]["seconds"] == pytest.approx(
        2 * m.kernel_time(WENO_BUDGET, 50_000))
