"""Tests for the Summit machine models."""

import numpy as np
import pytest

from repro.kernels.counts import (
    UPDATE_BUDGET,
    VISCOUS_BUDGET,
    WENO_BUDGET,
)
from repro.machine.gpu import V100Model
from repro.machine.network import FatTreeModel
from repro.machine.node import Power9Model
from repro.machine.roofline import hierarchical_roofline
from repro.machine.summit import SUMMIT


def test_summit_spec():
    assert SUMMIT.gpus_per_node == 6
    assert SUMMIT.cores_per_node == 44
    assert SUMMIT.ranks_for(16, on_gpu=True) == 96
    assert SUMMIT.ranks_for(16, on_gpu=False) == 704
    with pytest.raises(ValueError):
        SUMMIT.ranks_for(0, True)


def test_v100_occupancy_matches_paper():
    """255 registers/thread -> exactly the 12.5% the paper reports."""
    v = V100Model()
    assert v.theoretical_occupancy(255) == pytest.approx(0.125)
    assert v.theoretical_occupancy(32) == 1.0
    assert v.theoretical_occupancy(128) == 0.25
    with pytest.raises(ValueError):
        v.theoretical_occupancy(0)


def test_v100_weno_roofline_matches_paper():
    """Fig. 4: ~300 DP Gflop/s, ~4% of peak, bandwidth-bound."""
    rp = hierarchical_roofline(WENO_BUDGET)
    assert 250e9 < rp.achieved_flops_per_s < 400e9
    assert 0.03 < rp.fraction_of_peak < 0.05
    assert rp.is_bandwidth_bound()
    assert rp.occupancy == pytest.approx(0.125)
    # hierarchical AI ordering: L1 < L2 < DRAM intensity
    assert rp.ai["L1"] < rp.ai["L2"] < rp.ai["DRAM"]


def test_update_kernel_not_occupancy_limited():
    """The trivial saxpy kernel has low register pressure, higher ceiling."""
    v = V100Model()
    assert v.achieved_flops(UPDATE_BUDGET) != v.achieved_flops(WENO_BUDGET)
    occ_update = v.theoretical_occupancy(UPDATE_BUDGET.registers_per_thread)
    assert occ_update > 0.125


def test_gpu_kernel_time_scaling():
    """Fig. 3 shape: GPU efficiency grows with problem size."""
    v = V100Model()
    p9 = Power9Model()
    speedups = []
    for n in (8_000, 50_000, 200_000):
        t_gpu = v.kernel_time(WENO_BUDGET, n)
        t_cpu = p9.kernel_time(WENO_BUDGET, n, "cpp")
        speedups.append(t_cpu / t_gpu)
    assert speedups[0] < speedups[1] < speedups[2]
    assert 1.5 < speedups[0] < 5.0  # small-problem speedup ~2.5x
    assert 10.0 < speedups[2] < 18.0  # large-problem speedup ~15.8x


def test_cpp_slowdown():
    """Sec. VI-A: C++ kernels ~1.2x slower than Fortran on POWER9."""
    p9 = Power9Model()
    tf = p9.kernel_time(WENO_BUDGET, 100_000, "fortran")
    tc = p9.kernel_time(WENO_BUDGET, 100_000, "cpp")
    assert tc / tf == pytest.approx(1.2)
    with pytest.raises(ValueError):
        p9.kernel_time(WENO_BUDGET, 10, "rust")


def test_cpu_per_core():
    p9 = Power9Model()
    t_all = p9.kernel_time(WENO_BUDGET, 22_000)
    t_one = p9.kernel_time(WENO_BUDGET, 1_000, cores=1)
    assert t_one == pytest.approx(t_all)
    with pytest.raises(ValueError):
        p9.kernel_time(WENO_BUDGET, 10, cores=23)


def test_gpu_utilization_monotone():
    v = V100Model()
    u = [v.utilization(n) for n in (0, 1_000, 50_000, 1_000_000)]
    assert u[0] == 0.0
    assert all(a < b for a, b in zip(u, u[1:]))
    assert u[-1] > 0.9


def test_network_p2p_contention_grows():
    net = FatTreeModel()
    assert net.p2p_effective_bw(4) > net.p2p_effective_bw(1024)
    assert net.global_effective_bw(4) > net.global_effective_bw(1024)
    # global contention is the stronger effect
    ratio_g = net.global_effective_bw(4) / net.global_effective_bw(1024)
    ratio_p = net.p2p_effective_bw(4) / net.p2p_effective_bw(1024)
    assert ratio_g > ratio_p


def test_network_p2p_time_components():
    net = FatTreeModel()
    t = net.p2p_time(1e6, 1e6, 10, nodes=16)
    assert t > 0
    # more off-node volume -> more time
    assert net.p2p_time(2e6, 1e6, 10, 16) > t
    # more nodes -> more contention -> more time
    assert net.p2p_time(1e6, 1e6, 10, 1024) > t


def test_reduction_and_barrier_log_scaling():
    net = FatTreeModel()
    t64 = net.reduction_time(64)
    t4096 = net.reduction_time(4096)
    assert t4096 == pytest.approx(2.0 * t64, rel=0.01)  # 6 vs 12 tree levels
    assert net.barrier_time(1024) > net.barrier_time(4)
