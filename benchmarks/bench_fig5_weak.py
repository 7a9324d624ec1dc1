"""Fig. 5 (right): weak scaling over the Table I series.

Paper: versions 1.1 / 1.2 / 2.0 / 2.1 from 4 to 1024 nodes at ~4.1e7
equivalent points per node.  CPU versions stay nearly flat; the GPU
versions' time per iteration creeps up (communication-bound), with
version 2.0 reaching ~54% weak efficiency at 400 nodes and ~40% at 1024,
improved to ~70% at 400 by swapping in the trilinear interpolator (2.1).
"""

import pytest

from benchmarks.conftest import FULL, table
from repro.perfmodel.scaling import (
    TABLE1,
    speedup_series,
    weak_scaling,
    weak_scaling_efficiency,
)

TABLE = TABLE1 if FULL else tuple((n, g, p) for n, g, p in TABLE1
                                  if n in (4, 16, 100, 400, 1024))
VERSIONS = ("1.1", "1.2", "2.0", "2.1")


def test_fig5_weak_scaling(benchmark):
    ws = benchmark.pedantic(
        lambda: weak_scaling(versions=VERSIONS, table=TABLE),
        rounds=1, iterations=1,
    )
    rows = []
    for k, (n, _g, pts) in enumerate(TABLE):
        rows.append((n, f"{pts:.2e}") + tuple(
            f"{ws[v][k].time_per_iteration:.3f}" for v in VERSIONS
        ))
    table("Fig. 5 (right) — weak scaling (Table I)",
          ("nodes", "equiv pts") + tuple(f"{v} [s]" for v in VERSIONS), rows)

    eff20 = weak_scaling_efficiency(ws["2.0"])
    eff21 = weak_scaling_efficiency(ws["2.1"])
    print(f"  2.0 weak efficiency: {[f'{e:.0%}' for e in eff20]}  "
          f"(paper: ~54% @400, ~40% @1024)")
    print(f"  2.1 weak efficiency: {[f'{e:.0%}' for e in eff21]}  "
          f"(paper: ~70% @400)")

    # -- shape assertions ---------------------------------------------------
    # CPU versions stay far flatter than the GPU versions
    def growth(v):
        t = [p.time_per_iteration for p in ws[v]]
        return t[-1] / t[0]

    assert growth("1.1") < growth("2.0")
    # GPU weak efficiency degrades with node count
    assert eff20[-1] < 0.75
    # 2.1 improves on 2.0 at every node count (less ParallelCopy)
    faster = [a.time_per_iteration >= b.time_per_iteration
              for a, b in zip(ws["2.0"], ws["2.1"])]
    assert all(faster)
    assert eff21[-1] > eff20[-1]
    # GPU runs are far faster than CPU runs throughout
    sp = speedup_series(ws["1.2"], ws["2.0"])
    assert min(sp) > 1.5
