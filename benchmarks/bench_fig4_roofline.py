"""Fig. 4: hierarchical roofline of the WENOx kernel on a V100.

Paper's reported values: ~300 DP Gflop/s achieved (~4% of the 7.8 Tflop/s
peak), bandwidth-bound at L1, L2 and DRAM, 12.5% theoretical occupancy
from very high register usage.
"""

import pytest

from benchmarks.conftest import table
from repro.kernels.counts import BUDGETS, WENO_BUDGET
from repro.machine.gpu import V100Model
from repro.machine.roofline import hierarchical_roofline


def test_fig4_weno_roofline(benchmark):
    device = V100Model()
    rp = benchmark.pedantic(lambda: hierarchical_roofline(WENO_BUDGET, device),
                            rounds=1, iterations=1)
    rows = [
        (lvl, f"{rp.ai[lvl]:.3f}", f"{rp.ceilings[lvl] / 1e9:.0f}")
        for lvl in ("L1", "L2", "DRAM")
    ]
    table("Fig. 4 — WENOx hierarchical roofline (V100)",
          ("level", "AI [flop/B]", "ceiling [Gflop/s]"), rows)
    print(f"  achieved: {rp.achieved_flops_per_s / 1e9:.0f} Gflop/s "
          f"({rp.fraction_of_peak:.1%} of {rp.peak_flops / 1e12:.1f} Tflop/s peak)")
    print(f"  occupancy: {rp.occupancy:.1%}   bound: {rp.bound_level}")
    print("  paper: ~300 Gflop/s, ~4% of peak, bandwidth-bound, 12.5% occupancy")

    assert 250e9 < rp.achieved_flops_per_s < 400e9
    assert 0.03 < rp.fraction_of_peak < 0.05
    assert rp.occupancy == pytest.approx(0.125)
    assert rp.is_bandwidth_bound()


def test_fig4_all_kernels(benchmark):
    """The paper omits WENOy/z/Viscous rooflines as 'similar' — check that."""
    device = V100Model()

    def build():
        return {name: hierarchical_roofline(b, device)
                for name, b in BUDGETS.items()}

    points = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = [
        (name, f"{rp.achieved_flops_per_s / 1e9:.0f}",
         f"{rp.fraction_of_peak:.1%}", rp.bound_level, f"{rp.occupancy:.1%}")
        for name, rp in points.items()
    ]
    table("all kernels on the V100 roofline",
          ("kernel", "Gflop/s", "of peak", "bound", "occupancy"), rows)
    # WENO and Viscous land in the same regime (the paper's 'similar')
    w, v = points["WENO"], points["Viscous"]
    assert v.is_bandwidth_bound() and w.is_bandwidth_bound()
    assert abs(v.occupancy - w.occupancy) < 1e-12
    ratio = v.achieved_flops_per_s / w.achieved_flops_per_s
    assert 0.5 < ratio < 2.0
