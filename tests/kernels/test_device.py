"""Tests for the simulated GPU device."""

import numpy as np
import pytest

from repro.kernels.device import (
    DeviceMemoryError,
    GpuDevice,
    V100_MEMORY_BYTES,
    launch_totals,
)


def test_default_is_v100_capacity():
    dev = GpuDevice()
    assert dev.memory_bytes == V100_MEMORY_BYTES == 16 * 1024**3


def test_alloc_free_accounting():
    dev = GpuDevice(memory_bytes=1000)
    a = dev.alloc((10,))  # 80 bytes
    assert dev.bytes_in_use == 80
    b = dev.alloc((5,))
    assert dev.bytes_in_use == 120
    a.free()
    assert dev.bytes_in_use == 40
    a.free()  # idempotent
    assert dev.bytes_in_use == 40
    b.free()
    assert dev.bytes_in_use == 0
    assert dev.high_water == 120


def test_capacity_enforced():
    dev = GpuDevice(memory_bytes=100)
    dev.alloc((10,))
    with pytest.raises(DeviceMemoryError):
        dev.alloc((10,))


def test_context_manager_frees():
    dev = GpuDevice(memory_bytes=1000)
    with dev.alloc((10,)) as scratch:
        assert dev.bytes_in_use == 80
        scratch.data[...] = 1.0
    assert dev.bytes_in_use == 0


def test_upload_copies():
    dev = GpuDevice()
    host = np.arange(5.0)
    d = dev.upload(host)
    host[0] = 99.0
    assert d.data[0] == 0.0


def test_launch_records_and_returns():
    dev = GpuDevice()
    out = dev.launch("WENOx", lambda: np.ones(3), npoints=1000,
                     flops_per_point=600, dram_bytes_per_point=400)
    assert np.all(out == 1.0)
    (rec, count), = dev.table.items()
    assert count == 1
    assert rec.name == "WENOx"
    assert rec.flops == 600000
    assert rec.dram_bytes == 400000
    assert rec.l2_bytes == 640000
    assert rec.l1_bytes == 1600000


def test_reduce():
    dev = GpuDevice()
    assert dev.reduce("ComputeDt", np.array([3.0, 1.0, 2.0]), "min") == 1.0
    assert dev.reduce("ComputeDt", np.array([3.0, 1.0]), "max") == 3.0
    assert dev.reduce("ComputeDt", np.array([3.0, 1.0]), "sum") == 4.0
    with pytest.raises(ValueError):
        dev.reduce("ComputeDt", np.array([1.0]), "prod")
    assert dev.table.total() == 3


def test_totals_and_by_kernel():
    dev = GpuDevice()
    dev.launch("A", lambda: None, 10, 2, 4)
    dev.launch("A", lambda: None, 10, 2, 4)
    dev.launch("B", lambda: None, 5, 1, 1)
    by_kernel = launch_totals([dev])
    assert set(by_kernel) == {"A", "B"}
    assert by_kernel["A"] == {"launches": 2, "points": 20, "flops": 40,
                              "dram_bytes": 80, "l2_bytes": 128,
                              "l1_bytes": 320}
    # identical launches share one row
    assert len(dev.table) == 2 and dev.table.total() == 3
    tot = dev.totals("A")
    assert tot.flops == 40
    assert dev.totals().npoints == 25
    dev.reset()
    assert not dev.table
    assert dev.totals().npoints == 0 and launch_totals([dev]) == {}


def test_double_free_detection():
    dev = GpuDevice(memory_bytes=1000)
    dev._allocate(100)
    dev._release(100)
    with pytest.raises(RuntimeError):
        dev._release(100)
