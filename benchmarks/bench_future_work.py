"""The paper's stated future directions, implemented and measured.

Sec. VI-A: "Future directions for improving kernel performance include
reducing the number of division operations and experimenting with
mixed-precision."  Sec. III-C: a WENO-SYMBO conservative interpolation
scheme is in development.  This bench exercises both:

- mixed precision: float32 flux kernels on the simulated GPU — accuracy
  cost on the functional solver, throughput gain on the machine model;
- WENO interpolation at coarse/fine interfaces (already implemented in
  :mod:`repro.amr.interp_weno`), against the trilinear default.
"""

import numpy as np
import pytest

from benchmarks.conftest import FULL, table
from repro.cases.shocktube import SodShockTube
from repro.core.crocco import Crocco, CroccoConfig
from repro.core.validation import compare_states
from repro.kernels.counts import WENO_BUDGET
from repro.machine.gpu import V100Model


def test_mixed_precision_model_throughput(benchmark):
    """A bandwidth-bound kernel roughly doubles throughput in fp32."""
    gpu = V100Model()

    def build():
        return [
            (n,
             gpu.kernel_time(WENO_BUDGET, n, "double"),
             gpu.kernel_time(WENO_BUDGET, n, "mixed"))
            for n in (20_000, 100_000, 500_000)
        ]

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    table("mixed-precision WENO kernel time (V100 model)",
          ("points", "double [s]", "mixed [s]", "speedup"),
          [(n, f"{td:.2e}", f"{tm:.2e}", f"{td / tm:.2f}x")
           for n, td, tm in rows])
    for n, td, tm in rows:
        sp = td / tm
        assert 1.3 < sp <= 2.1  # bandwidth-bound: approaches 2x
    with pytest.raises(ValueError):
        gpu.kernel_time(WENO_BUDGET, 100, "half")


def test_mixed_precision_functional_accuracy(benchmark):
    """fp32 kernels on Sod: solution stays close to double precision."""
    ncells = 128 if FULL else 64

    def run(precision):
        case = SodShockTube(ncells)
        sim = Crocco(case, CroccoConfig(version="2.0", max_grid_size=ncells))
        from dataclasses import replace

        sim.kernels = replace(sim.kernels, precision=precision)
        sim.initialize()
        while sim.time < 0.1:
            sim.step()
        return sim

    def build():
        return run("double"), run("mixed")

    dbl, mix = benchmark.pedantic(build, rounds=1, iterations=1)
    assert dbl.step_count == pytest.approx(mix.step_count, abs=2)
    diffs = compare_states(dbl, mix)
    table("mixed-precision accuracy on Sod (L2 vs double)",
          ("variable", "L2 difference"),
          [(v, f"{d:.2e}") for v, d in sorted(diffs.items())])
    # well above the fortran/C++ drift (1e-7-ish) but still small: the
    # fp32 truncation is visible yet does not corrupt the solution
    assert 1e-9 < max(diffs.values()) < 1e-2
    assert not mix.state[0].contains_nan()


def test_weno_interface_interpolation(benchmark):
    """The in-development WENO-SYMBO interface interpolation, in use."""
    from repro.cases.vortex import IsentropicVortex

    def run(interp):
        case = IsentropicVortex(ncells=32)
        case.tag_threshold = 0.01
        sim = Crocco(case, CroccoConfig(version="1.2", max_level=1,
                                        max_grid_size=32, blocking_factor=4,
                                        regrid_int=4, interpolator=interp))
        sim.initialize()
        while sim.time < 0.3:
            sim.step()
        errs = []
        for i, fab in sim.state[0]:
            exact = case.exact_solution(sim.coords[0].fab(i).valid(), sim.time)
            errs.append(np.abs(fab.valid()[0] - exact[0]).max())
        return max(errs)

    def build():
        return {i: run(i) for i in ("trilinear", "weno")}

    errs = benchmark.pedantic(build, rounds=1, iterations=1)
    table("interface-interpolation accuracy on the smooth vortex",
          ("interpolator", "max |rho err| at level 0"),
          [(i, f"{e:.2e}") for i, e in errs.items()])
    print("  paper: a WENO-SYMBO interpolation matching the numerics' "
          "dissipation and order\n  is expected to minimize the error "
          "introduced at fine/coarse interfaces")
    for e in errs.values():
        assert e < 0.05
