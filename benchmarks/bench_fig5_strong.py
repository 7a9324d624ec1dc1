"""Fig. 5 (left): strong scaling of CRoCCo 1.1 / 1.2 / 2.0 on Summit.

Paper: 1.27e9 grid points on 16-1024 nodes.  AMR (1.2 over 1.1) speeds up
4.6x at the lowest node count, degrading to a 1.1x slowdown at the
highest; GPU (2.0 over 1.2) speeds up 44x down to 6x; cumulatively 201x
down to 5.5x.  The GPU version stops improving around 128 nodes.
"""

import pytest

from benchmarks.conftest import FULL, table
from repro.perfmodel.scaling import (
    STRONG_POINTS,
    speedup_series,
    strong_scaling,
)

NODES = (16, 32, 64, 128, 256, 512, 1024) if FULL else (16, 64, 256, 1024)
POINTS = STRONG_POINTS if FULL else 2.0e8


def test_fig5_strong_scaling(benchmark):
    ss = benchmark.pedantic(
        lambda: strong_scaling(versions=("1.1", "1.2", "2.0"), nodes=NODES,
                               points=POINTS),
        rounds=1, iterations=1,
    )
    rows = []
    for k, n in enumerate(NODES):
        rows.append((n,) + tuple(
            f"{ss[v][k].time_per_iteration:.3f}" for v in ("1.1", "1.2", "2.0")
        ))
    table(f"Fig. 5 (left) — strong scaling, {POINTS:.3g} points",
          ("nodes", "1.1 [s]", "1.2 [s]", "2.0 [s]"), rows)

    amr = speedup_series(ss["1.1"], ss["1.2"])
    gpu = speedup_series(ss["1.2"], ss["2.0"])
    cum = speedup_series(ss["1.1"], ss["2.0"])
    print(f"  AMR speedup:        {[f'{s:.2f}x' for s in amr]}  "
          f"(paper: 4.6x -> 1.1x slowdown)")
    print(f"  GPU speedup:        {[f'{s:.1f}x' for s in gpu]}  "
          f"(paper: 44x -> 6x)")
    print(f"  cumulative speedup: {[f'{s:.1f}x' for s in cum]}  "
          f"(paper: 201x -> 5.5x)")

    # -- shape assertions against the paper --------------------------------
    # CPU 1.1 strong-scales well across the whole range (at the reduced
    # default problem size it saturates earlier, once ranks outnumber
    # boxes — run REPRO_FULL=1 for the paper-scale check)
    t11 = [p.time_per_iteration for p in ss["1.1"]]
    assert t11 == sorted(t11, reverse=True)
    min_gain = 0.3 * (NODES[-1] / NODES[0]) if FULL else 4.0
    assert t11[0] / t11[-1] > min_gain
    # AMR wins at low node counts and loses its advantage at the highest
    assert amr[0] > 2.0
    assert amr[-1] < amr[0] / 2
    # GPU speedup is large at low node counts and shrinks with scale
    # (the dynamic range grows with problem size; full scale spans ~28x->5x)
    assert gpu[0] > 10.0
    assert gpu[-1] < gpu[0] / (3.0 if FULL else 1.5)
    assert gpu[0] == max(gpu)
    if FULL:
        # at paper scale the decline is monotone; reduced sizes show
        # box-quantization noise in the middle of the series
        assert gpu == sorted(gpu, reverse=True)
    # the GPU curve flattens: its last-doubling gain is small
    t20 = [p.time_per_iteration for p in ss["2.0"]]
    assert t20[-1] > 0.5 * t20[-2]
    # cumulative ordering matches the paper's bands
    assert cum[0] > 30.0
    assert 1.0 < cum[-1] < 30.0
