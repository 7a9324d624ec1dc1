"""Tests for the simulated GPU device."""

import numpy as np
import pytest

from repro.backend import DeviceBackend, LaunchSpec
from repro.kernels.counts import KernelBudget, WENO_BUDGET
from repro.kernels.device import (
    DeviceMemoryError,
    GpuDevice,
    LaunchRecord,
    V100_MEMORY_BYTES,
    launch_totals,
)


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
    dev = GpuDevice()
    out = dev.run(LaunchRecord.priced("WENOx", 1000, WENO_BUDGET),
                  lambda: np.ones(3))
    assert np.all(out == 1.0)
    (rec, count), = dev.table.items()
    assert count == 1
    assert rec.name == "WENOx"
    assert rec.flops == 600000
    assert rec.dram_bytes == 400000
    assert rec.l2_bytes == 720000
    assert rec.l1_bytes == 1800000


def test_reduce():
    backend, dev = arena(V100_MEMORY_BYTES)
    assert backend.reduce_data("ComputeDt", np.array([3.0, 1.0, 2.0]),
                               "min") == 1.0
    assert backend.reduce_data("ComputeDt", np.array([3.0, 1.0]), "max") == 3.0
    assert backend.reduce_data("ComputeDt", np.array([3.0, 1.0]), "sum") == 4.0
    with pytest.raises(ValueError):
        backend.reduce_data("ComputeDt", np.array([1.0]), "prod")
    assert dev.table.total() == 3
    # one flop and one 8-byte word per value, whatever the name
    assert dev.table[LaunchRecord("ComputeDt", 2, 2, 16, 16, 16,
                                  "reduction")] == 2
    assert backend.reduce_data("R", None, npoints=5) is None
    assert dev.table[LaunchRecord("R", 5, 5, 40, 40, 40, "reduction")] == 1


def test_totals_and_by_kernel():
    dev = GpuDevice()
    a = KernelBudget("A", 2, 4, 1.6, 4.0, 64)
    dev.run(LaunchRecord.priced("A", 10, a), lambda: None)
    dev.run(LaunchRecord.priced("A", 10, a), lambda: None)
    dev.run(LaunchRecord.priced("B", 5, KernelBudget("B", 1, 1, 1.6, 4.0, 64)),
            lambda: None)
    by_kernel = launch_totals([dev])
    assert set(by_kernel) == {"A", "B"}
    assert by_kernel["A"] == {"launches": 2, "points": 20, "flops": 40,
                              "dram_bytes": 80, "l2_bytes": 128,
                              "l1_bytes": 320}
    # identical launches share one row
    assert len(dev.table) == 2 and dev.table.total() == 3
    assert sum(t["points"] for t in by_kernel.values()) == 25
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
