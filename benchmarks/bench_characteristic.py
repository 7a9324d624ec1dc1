"""Ablation: component-wise vs characteristic-wise WENO reconstruction.

Production WENO-SYMBO practice (and CRoCCo's) reconstructs in local
characteristic variables at strong shocks.  This bench compares both
paths on the Mach-10 DMR: oscillation levels behind the incident shock
and overall robustness.
"""

import numpy as np
import pytest

from benchmarks.conftest import FULL, table
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.numerics.fluxes import ConvectiveFlux
from repro.numerics.weno import WenoScheme


def run(characteristic: bool, ncells, t_end: float):
    case = DoubleMachReflection(ncells=ncells)
    sim = Crocco(case, CroccoConfig(version="1.1", max_grid_size=64))
    from dataclasses import replace

    sim.kernels.convective = replace(sim.kernels.convective,
                                     characteristic=characteristic)
    sim.initialize()
    while sim.time < t_end:
        sim.step()
    return sim, case


def post_shock_oscillation(sim, case) -> float:
    """RMS density deviation from the exact post-shock plateau, sampled in
    the undisturbed region between the inflow and the reflection zone."""
    devs = []
    for i, fab in sim.state[0]:
        coords = sim.coords[0].fab(i).valid()
        x, y = coords[0], coords[1]
        # upstream of the initial wall intercept and above the wall jet
        mask = (x < 0.12) & (y > 0.5)
        if mask.any():
            devs.append(fab.valid()[0][mask] - case.post.rho)
    all_dev = np.concatenate(devs)
    return float(np.sqrt(np.mean(all_dev**2)))


def test_characteristic_vs_componentwise_dmr(benchmark):
    ncells = (128, 32) if FULL else (96, 24)
    t_end = 0.03 if FULL else 0.02

    def build():
        out = {}
        for char in (False, True):
            sim, case = run(char, ncells, t_end)
            out["characteristic" if char else "componentwise"] = (
                post_shock_oscillation(sim, case),
                sim.min_max(0),
                sim.step_count,
            )
        return out

    res = benchmark.pedantic(build, rounds=1, iterations=1)
    table("DMR post-shock plateau noise (RMS density deviation)",
          ("reconstruction", "plateau RMS dev", "rho min", "rho max", "steps"),
          [(k, f"{osc:.2e}", f"{mm[0]:.3f}", f"{mm[1]:.2f}", s)
           for k, (osc, mm, s) in res.items()])
    for k, (osc, (mn, mx), _s) in res.items():
        assert mn > 1.0, k
        assert 8.0 < mx < 25.0, k
        assert osc < 0.5, k
    # the characteristic projection keeps the plateau at least as clean
    assert res["characteristic"][0] < 2.0 * res["componentwise"][0]
