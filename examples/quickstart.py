#!/usr/bin/env python
"""Quickstart: run CRoCCo on the Sod shock tube and validate against the
exact Riemann solution.

Usage:  python examples/quickstart.py [ncells]
"""

import sys

import numpy as np

from repro.cases.shocktube import SodShockTube
from repro.core.crocco import Crocco, CroccoConfig
from repro.core.diagnostics import sample


def main() -> None:
    ncells = int(sys.argv[1]) if len(sys.argv) > 1 else 128

    # 1. pick a flow case
    case = SodShockTube(ncells=ncells)

    # 2. configure the solver: CRoCCo 1.1 = C++ kernels, no AMR, CPU
    config = CroccoConfig(version="1.1", nranks=2, ranks_per_node=1,
                          max_grid_size=max(32, ncells // 2))
    sim = Crocco(case, config)

    # 3. initialize and march to t = 0.2
    sim.initialize()
    while sim.time < 0.2:
        sim.step()
    print(f"ran {sim.step_count} steps to t = {sim.time:.4f} "
          f"(WENO-{config.weno_variant.upper()}, RK3, CFL {case.cfl})")

    # 4. compare against the exact Riemann solution
    print(f"\n{'x':>8} {'rho (CRoCCo)':>14} {'rho (exact)':>12}")
    errs = []
    for i, fab in sim.state[0]:
        coords = sim.coords[0].fab(i).valid()
        exact = case.exact_solution(coords, sim.time)
        rho = fab.valid()[0]
        errs.append(np.abs(rho - exact[0]))
        for k in range(0, rho.shape[0], max(1, rho.shape[0] // 8)):
            print(f"{coords[0][k]:8.3f} {rho[k]:14.4f} {exact[0][k]:12.4f}")
    err = np.concatenate(errs)
    print(f"\nmean |rho error| = {err.mean():.4f}   max = {err.max():.4f}")
    print(f"total mass = {sample(sim).mass:.6f} (initial 0.562500)")
    print("\nTinyProfiler top-level regions:")
    for name, t in sorted(sim.profiler.top_level().items(), key=lambda kv: -kv[1]):
        print(f"  {name:<12} {t:8.3f} s")


if __name__ == "__main__":
    main()
