"""Fig. 7: decomposition of FillPatch into ParallelCopy / FillBoundary,
asynchronous (nowait) and completion (finish) parts, for CRoCCo 2.1.

Paper: ParallelCopy_finish is the component whose execution time rises as
node count goes up — the residual FillPatch bottleneck even after the
curvilinear interpolator swap.
"""

import pytest

from benchmarks.conftest import FULL, table
from repro.core.versions import get_version
from repro.perfmodel.calibration import CAL
from repro.perfmodel.decomposition import dmr_band_hierarchy
from repro.perfmodel.execution import fillpatch_split

NODES_PTS = ((4, 1.64e8), (16, 6.55e8), (100, 4.10e9), (1024, 4.19e10)) \
    if FULL else ((4, 2.0e7), (16, 8.0e7), (100, 5.0e8), (1024, 5.12e9))

PARTS = ("ParallelCopy_finish", "ParallelCopy_nowait",
         "FillBoundary_finish", "FillBoundary_nowait")


def test_fig7_fillpatch_decomposition(benchmark):
    v = get_version("2.1")

    def build():
        out = []
        for nodes, pts in NODES_PTS:
            nranks = CAL.spec.ranks_for(nodes, True)
            levels = dmr_band_hierarchy(pts, nranks, 6, True, CAL)
            out.append((nodes, fillpatch_split(v, levels, nodes, CAL)))
        return out

    series = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = [
        (nodes,) + tuple(f"{split[p]:.5f}" for p in PARTS)
        for nodes, split in series
    ]
    table("Fig. 7 — FillPatch internals for CRoCCo 2.1 (weak scaling)",
          ("nodes",) + PARTS, rows)

    pcf = [s["ParallelCopy_finish"] for _n, s in series]
    print(f"  ParallelCopy_finish: {[f'{t * 1e3:.2f} ms' for t in pcf]}")
    print("  paper: ParallelCopy_finish increases in execution time as "
          "node count goes up")

    # -- shape assertions --------------------------------------------------
    # ParallelCopy_finish grows monotonically with node count
    assert pcf == sorted(pcf)
    assert pcf[-1] > 2 * pcf[0]
    # at the largest scale it dominates the posting (nowait) parts
    last = series[-1][1]
    assert last["ParallelCopy_finish"] > last["ParallelCopy_nowait"]
    # the custom interpolator (2.0) pays even more ParallelCopy than 2.1
    nodes, pts = NODES_PTS[-1]
    nranks = CAL.spec.ranks_for(nodes, True)
    levels = dmr_band_hierarchy(pts, nranks, 6, True, CAL)
    split20 = fillpatch_split(get_version("2.0"), levels, nodes, CAL)
    assert split20["ParallelCopy_finish"] > last["ParallelCopy_finish"]
