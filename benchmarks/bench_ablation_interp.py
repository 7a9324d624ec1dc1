"""Ablation: coarse/fine interpolator choice (the 2.0 vs 2.1 swap, plus
the conservative and WENO interpolators).

The paper isolates the custom curvilinear interpolator's global
ParallelCopy by swapping in AMReX's trilinear interpolator (2.1), and
describes a WENO-SYMBO interpolator in development for conservation
across interfaces.  This bench compares all four on the functional
solver: communication volume, runtime, and solution quality.
"""

import numpy as np
import pytest

from benchmarks.conftest import FULL, table
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.core.diagnostics import sample

INTERPS = ("curvilinear", "trilinear", "conservative", "weno")


def run(interp, nsteps):
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(version="2.0", nranks=4, ranks_per_node=2,
                                    max_level=1, max_grid_size=32,
                                    regrid_int=4, interpolator=interp))
    sim.initialize()
    sim.comm.ledger.clear()
    sim.run(nsteps)
    return sim


def test_ablation_interpolator(benchmark):
    nsteps = 8 if FULL else 4

    def build():
        return {i: run(i, nsteps) for i in INTERPS}

    sims = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = []
    for name, sim in sims.items():
        led = sim.comm.ledger
        rec = sample(sim)
        rows.append((
            name,
            f"{led.total_bytes('parallelcopy') / 1e6:.2f}",
            f"{led.total_bytes('fillboundary') / 1e6:.2f}",
            f"{rec.rho_min:.3f}", f"{rec.rho_max:.2f}",
        ))
    table("interpolator ablation (DMR, 2-level AMR, per-run traffic)",
          ("interpolator", "ParallelCopy MB", "FillBoundary MB",
           "rho min", "rho max"), rows)
    print("  paper: the curvilinear interpolator's coordinate gather is the "
          "ParallelCopy bottleneck;\n  trilinear (2.1) removes it")

    pc = {n: sims[n].comm.ledger.total_bytes("parallelcopy") for n in INTERPS}
    # the curvilinear interpolator moves far more ParallelCopy data
    assert pc["curvilinear"] > 3 * pc["trilinear"]
    assert pc["curvilinear"] > 3 * pc["conservative"]
    assert pc["curvilinear"] > 2 * pc["weno"]
    # every variant produces a sane shocked field
    for name, sim in sims.items():
        rec = sample(sim)
        assert rec.rho_min > 1.0 and 8.0 < rec.rho_max < 25.0, name
        assert not sim.state[0].contains_nan()
