"""Sec. IV-A / IV-C: the porting-correctness L2 validation.

Paper: the L2-norm of the per-variable difference between the Fortran and
C++ kernels plateaued at ~1e-7 (within machine-precision accumulation),
and the GPU port showed *no* change in accuracy over the C++ CPU kernels.
"""

import pytest

from benchmarks.conftest import FULL, table
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.core.validation import compare_states


def run(version, ncells, t_end):
    case = DoubleMachReflection(ncells=ncells)
    sim = Crocco(case, CroccoConfig(version=version, nranks=2,
                                    ranks_per_node=1, max_grid_size=64))
    sim.initialize()
    while sim.time < t_end:
        sim.step()
    return sim


def test_l2_validation_across_backends(benchmark):
    ncells = (128, 32) if FULL else (64, 16)
    t_end = 0.03 if FULL else 0.015

    def build():
        sims = {v: run(v, ncells, t_end) for v in ("1.0", "1.1", "2.0")}
        return (
            compare_states(sims["1.0"], sims["1.1"]),
            compare_states(sims["1.1"], sims["2.0"]),
            {v: s.step_count for v, s in sims.items()},
        )

    f_vs_c, c_vs_g, steps = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = [(var, f"{f_vs_c[var]:.3e}", f"{c_vs_g[var]:.3e}")
            for var in sorted(f_vs_c)]
    table("porting validation — L2-norm of flow-variable differences",
          ("variable", "fortran vs C++", "C++ vs GPU"), rows)
    print(f"  steps: {steps}")
    print("  paper: fortran-vs-C++ plateaus at ~1e-7; GPU shows no change")

    # Fortran vs C++: small but nonzero (different accumulation order),
    # below the paper's 1e-7 acceptance threshold
    assert 0.0 < max(f_vs_c.values()) < 1e-7
    # GPU vs C++: bitwise identical
    assert max(c_vs_g.values()) == 0.0
