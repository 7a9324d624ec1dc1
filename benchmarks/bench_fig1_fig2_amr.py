"""Figs. 1 and 2: the AMR hierarchy itself, functionally.

Fig. 1 shows a three-level block-structured AMR grid (coarsest level
active everywhere, finer overset patches).  Fig. 2 shows the DMR density
field computed with three-level curvilinear AMR.  This bench builds both
with the functional solver and checks their structural properties.
"""

import numpy as np
import pytest

from benchmarks.conftest import FULL, table
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig


def run_dmr(nx=96, t_end=0.02, max_level=2):
    case = DoubleMachReflection(ncells=(nx, nx // 4), curvilinear=True)
    cfg = CroccoConfig(version="2.0", nranks=6, ranks_per_node=6,
                       max_level=max_level, max_grid_size=32,
                       blocking_factor=8, regrid_int=4)
    sim = Crocco(case, cfg)
    sim.initialize()
    while sim.time < t_end:
        sim.step()
    return sim


def test_fig1_fig2_dmr_amr_hierarchy(benchmark):
    nx = 128 if FULL else 96
    t_end = 0.05 if FULL else 0.02
    sim = benchmark.pedantic(lambda: run_dmr(nx, t_end), rounds=1, iterations=1)

    rows = []
    for lev in range(sim.finest_level + 1):
        ba = sim.box_arrays[lev]
        dom = sim.geoms[lev].domain
        rows.append((lev, len(ba), ba.num_pts(), dom.num_pts(),
                     f"{ba.num_pts() / dom.num_pts():.1%}"))
    table("Figs. 1-2 — three-level curvilinear AMR hierarchy on the DMR",
          ("level", "boxes", "active pts", "domain pts", "coverage"), rows)
    mn, mx = sim.min_max(0)
    print(f"  t = {sim.time:.4f} after {sim.step_count} steps; "
          f"density in [{mn:.2f}, {mx:.2f}]")
    print(f"  AMR savings: {sim.amr_savings():.1%} "
          f"(paper: 89-94% at production resolution)")

    # Fig. 1 structure: coarsest level covers the whole domain, finer
    # levels are overset partial covers
    assert sim.finest_level == 2
    assert sim.box_arrays[0].num_pts() == sim.geoms[0].domain.num_pts()
    for lev in (1, 2):
        cov = sim.box_arrays[lev].num_pts() / sim.geoms[lev].domain.num_pts()
        assert 0.0 < cov < 0.9
    # proper nesting
    for b in sim.box_arrays[2]:
        assert sim.box_arrays[1].contains(b.coarsen(2))
    # Fig. 2 physics: the reflection amplifies density well beyond the
    # inviscid normal-shock jump of 8, with no vacuum and no NaN
    assert mx > 8.5
    assert mn > 1.0
    assert not any(sim.state[l].contains_nan()
                   for l in range(sim.finest_level + 1))
    # refinement concentrates near the shock system: the fine level's
    # boxes cluster in a band, not across the whole domain
    ba2 = sim.box_arrays[2]
    xspan = max(b.hi[0] for b in ba2) - min(b.lo[0] for b in ba2)
    assert ba2.num_pts() < 0.7 * sim.geoms[2].domain.num_pts()
