"""Table I: the weak-scaling configurations and their derived loads.

Regenerates the paper's table (nodes, GPUs, equivalent grid points) and
adds the decomposition-derived columns: actual grid shape, active points
under three-level AMR, reduction vs equivalent, and per-GPU load against
the V100 budget.
"""

import pytest

from benchmarks.conftest import FULL, table
from repro.perfmodel.calibration import CAL
from repro.perfmodel.decomposition import (
    amr_reduction,
    dmr_band_hierarchy,
    dmr_grid_shape,
)
from repro.perfmodel.scaling import TABLE1


def test_table1_configurations(benchmark):
    entries = TABLE1 if FULL else TABLE1[:4]

    def build():
        rows = []
        for nodes, gpus, pts in entries:
            shape = dmr_grid_shape(pts)
            levels = dmr_band_hierarchy(pts, gpus, 6, amr=True)
            active = sum(l.num_pts() for l in levels)
            red = amr_reduction(levels)
            per_gpu = active / gpus
            rows.append((nodes, gpus, pts, shape, active, red, per_gpu))
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    table(
        "Table I — weak scaling configurations",
        ("nodes", "GPUs", "equiv pts", "grid shape", "active pts",
         "reduction", "pts/GPU"),
        [(n, g, f"{p:.2e}", f"{s[0]}x{s[1]}x{s[2]}", f"{a:.2e}",
          f"{r:.1%}", f"{pg:.1e}")
         for n, g, p, s, a, r, pg in rows],
    )
    print("  paper: 4-1024 nodes, 24-6144 GPUs, 1.64e8-4.19e10 equivalent "
          "points;\n  AMR reduces active points by 89-94%")
    for n, g, p, s, a, r, pg in rows:
        assert g == 6 * n  # six GPUs per Summit node
        assert 0.85 < r < 0.95  # the paper's reduction band
        # grid shape honors the DMR 2:1 x:z constraint
        assert s[0] == 2 * s[2]
        # realized totals near the nominal equivalents
        assert 0.5 < (s[0] * s[1] * s[2]) / p < 2.0
