"""Fig. 6: decomposition of CRoCCo 2.1 runtime by profiled region.

Paper: over the weak-scaling series, FillPatch grows ~40% from 4 to 100
nodes and ~65% from 100 to 1024 nodes; Advance stays steady (the GPU
kernels weak-scale well); ComputeDt is consistently tiny; Regrid also
grows with node count.
"""

import pytest

from benchmarks.conftest import FULL, table
from repro.core.versions import get_version
from repro.perfmodel.calibration import CAL
from repro.perfmodel.decomposition import dmr_band_hierarchy
from repro.perfmodel.execution import simulate_iteration

NODES_PTS = ((4, 1.64e8), (16, 6.55e8), (100, 4.10e9), (1024, 4.19e10)) \
    if FULL else ((4, 2.0e7), (16, 8.0e7), (100, 5.0e8), (1024, 5.12e9))

REGIONS = ("Advance", "FillPatch", "ComputeDt", "AverageDown", "Regrid")


def test_fig6_region_decomposition(benchmark):
    v = get_version("2.1")

    def build():
        out = []
        for nodes, pts in NODES_PTS:
            nranks = CAL.spec.ranks_for(nodes, True)
            levels = dmr_band_hierarchy(pts, nranks, 6, True, CAL)
            out.append((nodes, simulate_iteration(v, levels, nodes, CAL)))
        return out

    series = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = [
        (nodes,) + tuple(f"{bd.as_dict()[r]:.4f}" for r in REGIONS)
        + (f"{bd.total:.4f}",)
        for nodes, bd in series
    ]
    table("Fig. 6 — CRoCCo 2.1 runtime by region (weak scaling)",
          ("nodes",) + REGIONS + ("total",), rows)

    fp = [bd.fillpatch for _n, bd in series]
    adv = [bd.advance for _n, bd in series]
    dt = [bd.computedt for _n, bd in series]
    print(f"  FillPatch growth 4->100 nodes: {fp[2] / fp[0] - 1:+.0%} "
          f"(paper ~+40%)")
    print(f"  FillPatch growth 100->1024:    {fp[3] / fp[2] - 1:+.0%} "
          f"(paper ~+65%)")

    # -- shape assertions ---------------------------------------------------
    assert fp[2] > fp[0]  # FillPatch grows toward 100 nodes
    assert fp[3] > fp[2]  # and keeps growing to 1024
    # Advance stays comparatively steady (weak scaling of the kernels)
    assert max(adv) / min(adv) < max(fp) / min(fp)
    # ComputeDt is a consistently small share
    for (nodes, bd), t in zip(series, dt):
        assert t < 0.1 * bd.total
    # Regrid grows with node count
    rg = [bd.regrid for _n, bd in series]
    assert rg[-1] > rg[0]
