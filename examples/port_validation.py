#!/usr/bin/env python
"""The paper's porting-correctness procedure (Sec. IV-A / IV-C).

Runs the same problem through the three steps of the port — the
``fortran`` ordering (CRoCCo 1.0), the ``cpp`` ordering (1.1) and the
``cpp`` ordering on the device target (2.0) — and reports the L2-norm
of the difference in each flow variable, the validation the paper used to
accept the Fortran -> C++ translation (drift plateauing near 1e-7) and the
GPU port (no change at all).

Usage:  python examples/port_validation.py [ncells] [t_end]
"""

import sys

from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.core.validation import compare_states


def run(version: str, ncells, t_end: float) -> Crocco:
    case = DoubleMachReflection(ncells=ncells)
    cfg = CroccoConfig(version=version, nranks=2, ranks_per_node=1,
                       max_grid_size=64)
    sim = Crocco(case, cfg)
    sim.initialize()
    while sim.time < t_end:
        sim.step()
    return sim


def main() -> None:
    nx = int(sys.argv[1]) if len(sys.argv) > 1 else 96
    t_end = float(sys.argv[2]) if len(sys.argv) > 2 else 0.02
    ncells = (nx, nx // 4)

    print(f"running DMR {ncells} to t = {t_end} through all three ports...")
    sims = {v: run(v, ncells, t_end) for v in ("1.0", "1.1", "2.0")}
    steps = {v: s.step_count for v, s in sims.items()}
    print(f"steps taken: {steps}")

    print("\nFortran (1.0) vs C++ (1.1)  — the translation drift:")
    for var, d in compare_states(sims["1.0"], sims["1.1"]).items():
        print(f"  L2 diff {var:<3} = {d:.3e}")
    print("  (paper: plateaus at ~1e-7, within machine-precision "
          "accumulation)")

    print("\nC++ (1.1) vs GPU (2.0) — the GPU port:")
    diffs = compare_states(sims["1.1"], sims["2.0"])
    for var, d in diffs.items():
        print(f"  L2 diff {var:<3} = {d:.3e}")
    if max(diffs.values()) == 0.0:
        print("  bitwise identical — no accuracy change on the GPU, "
              "as the paper reports")


if __name__ == "__main__":
    main()
