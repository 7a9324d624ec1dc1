"""Ablation: WENO variant (bandwidth-optimized symmetric vs alternatives).

The paper's numerics are bandwidth-optimized symmetric WENO (WENO-SYMBO,
Martin et al. 2006), chosen to resolve the smallest turbulent scales on a
reduced number of grid points.  This bench quantifies that design choice:
spectral resolving efficiency of the linear schemes and actual solution
error on the smooth-vortex problem, against the max-order symmetric
variant (symoo) and classic upwind WENO5-JS.
"""

import numpy as np
import pytest

from benchmarks.conftest import FULL, table
from repro.cases.vortex import IsentropicVortex
from repro.core.crocco import Crocco, CroccoConfig
from repro.numerics.weno import SYMBO_C0, SYMOO_C0, modified_wavenumber


def test_bandwidth_resolving_efficiency(benchmark):
    """The bandwidth-optimization tradeoff in the linear schemes.

    The optimized weights minimize the *integrated* dispersion error up to
    the cutoff wavenumber (resolving small scales on fewer points), at the
    cost of the tight low-k accuracy the max-order weights retain — the
    classic order-vs-bandwidth tradeoff of Martin et al. (2006).
    """

    def build():
        k = np.linspace(0.01, 2.0, 2000)
        out = {}
        for name, c0 in (("symbo", SYMBO_C0), ("symoo", SYMOO_C0)):
            kp = modified_wavenumber(c0, k)
            integ = float(np.trapezoid((kp - k) ** 2, k))
            ok = np.abs(kp - k) < 0.01 * k
            idx = np.argmin(ok) if not ok.all() else len(k) - 1
            out[name] = (integ, k[max(0, idx - 1)])
        return out

    res = benchmark.pedantic(build, rounds=1, iterations=1)
    table("linear-scheme dispersion characteristics (k up to 2 rad/cell)",
          ("scheme", "integrated error", "1% resolving limit [rad/cell]"),
          [(n, f"{e:.2e}", f"{lim:.3f}") for n, (e, lim) in res.items()])
    print("  symbo minimizes the integrated high-k error (its objective); "
          "symoo keeps\n  the tighter formal-order accuracy at low k — the "
          "order-vs-bandwidth tradeoff")
    # bandwidth optimization wins its own objective...
    assert res["symbo"][0] < res["symoo"][0]
    # ...while the max-order weights win the strict pointwise criterion
    assert res["symoo"][1] > res["symbo"][1]


def test_vortex_error_by_variant(benchmark):
    n = 64 if FULL else 32
    t_end = 1.0 if FULL else 0.5

    def run(variant):
        case = IsentropicVortex(ncells=n)
        sim = Crocco(case, CroccoConfig(version="1.1", max_grid_size=n,
                                        weno_variant=variant))
        sim.initialize()
        while sim.time < t_end:
            sim.step()
        errs = []
        for i, fab in sim.state[0]:
            exact = case.exact_solution(sim.coords[0].fab(i).valid(), sim.time)
            errs.append(np.abs(fab.valid()[0] - exact[0]).max())
        return max(errs)

    def build():
        return {v: run(v) for v in ("symbo", "symoo", "js5")}

    errs = benchmark.pedantic(build, rounds=1, iterations=1)
    table(f"vortex advection max density error (n={n}, t={t_end})",
          ("variant", "max |rho err|"),
          [(v, f"{e:.2e}") for v, e in errs.items()])
    for v, e in errs.items():
        assert e < 0.05, v
