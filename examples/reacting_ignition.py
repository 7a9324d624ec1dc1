#!/usr/bin/env python
"""Chemically reacting flow: hot-spot ignition (the w_s of Eq. 1).

Runs the two-species Arrhenius ignition problem end to end: species
transport, Fickian diffusion with enthalpy flux, heat release through the
formation-enthalpy terms of Eq. 2, and the resulting pressure waves.

Usage:  python examples/reacting_ignition.py [ncells] [nsteps]
"""

import sys

import numpy as np

from repro.cases.reacting import IgnitionFront
from repro.core.crocco import Crocco, CroccoConfig
from repro.core.diagnostics import sample


def main() -> None:
    ncells = int(sys.argv[1]) if len(sys.argv) > 1 else 128
    nsteps = int(sys.argv[2]) if len(sys.argv) > 2 else 120

    case = IgnitionFront(ncells=ncells)
    sim = Crocco(case, CroccoConfig(version="1.1", max_grid_size=ncells))
    sim.initialize()
    q = case.reaction.heat_release(case.eos)
    print(f"two-species A -> B, heat release {q:.2e} J/kg, "
          f"activation T {case.reaction.activation_temperature:.0f} K")
    print(f"{'step':>6} {'time [s]':>10} {'burned':>8} {'T max [K]':>10} "
          f"{'p max [Pa-ish]':>14} {'u max':>8}")
    for k in range(nsteps):
        sim.step()
        if (k + 1) % max(1, nsteps // 10) == 0:
            u = sim.state[0].fab(0).valid()
            T = case.eos.temperature(case.layout, u)
            p = case.eos.pressure(case.layout, u)
            vel = case.layout.velocity(u)
            print(f"{sim.step_count:6d} {sim.time:10.2e} "
                  f"{case.burned_fraction(u):8.1%} {T.max():10.1f} "
                  f"{p.max():14.4g} {np.abs(vel).max():8.2f}")

    u = sim.state[0].fab(0).valid()
    x = sim.coords[0].fab(0).valid()[0]
    yb = u[1] / (u[0] + u[1])
    print("\nproduct mass fraction profile:")
    for i in range(0, ncells, max(1, ncells // 16)):
        bar = "#" * int(40 * yb[i])
        print(f"  x={x[i]:.3f} |{bar:<40s}| {yb[i]:.2f}")
    print(f"\nmass conservation: total mass = {sample(sim).mass:.8f} "
          f"(initial 1.0)")


if __name__ == "__main__":
    main()
