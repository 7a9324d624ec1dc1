"""Fused-target speedup and accuracy over the host target.

The ``fused`` execution target is the repo's first *optimizing* backend:
one wide WENO launch per right-hand side (shared primitives, transverse
pre-crop, interface-restricted combination), scratch served from a
shape-keyed cache, and an optional numba JIT.  This benchmark measures
the three claims that gate the target:

1. **WENO kernel-class speedup** >= 1.5x over ``host`` on the RK
   right-hand side (the DMR-shaped boxes the AMR hierarchy produces),
2. **drift bound**: fused-vs-host relative L2 difference <= 1e-7 after
   a multi-step DMR run — the paper's port-validation criterion
   (Sec. IV-A), recorded as matched decimal digits so the perf gate
   treats more digits as better,
3. **scratch steady state**: the cache hit rate approaches 1 once every
   box shape has been seen (Sec. IV-B's hoisted scratch allocation).

Rows land in BENCH_results.json as the ``fused_kernels`` series for
``tools/bench_gate.py``.
"""

import time

import numpy as np

from benchmarks._record import record
from benchmarks.conftest import table
from repro.backend import make_exec_backend
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.core.validation import flow_variables, l2_difference
from repro.kernels.api import make_kernels
from repro.numerics.eos import IdealGasEOS
from repro.numerics.metrics import CartesianMetrics
from repro.numerics.state import StateLayout

#: acceptance floor for the WENO kernel-class speedup
MIN_SPEEDUP = 1.5

#: the paper's L2 validation criterion
DRIFT_TOL = 1e-7

DMR_STEPS = 3


def _smooth_state(layout, ng, n):
    shape = (layout.ncons,) + tuple(n + 2 * ng for _ in range(layout.dim))
    grids = np.meshgrid(*[np.linspace(0.0, 1.0, s) for s in shape[1:]],
                        indexing="ij")
    u = np.empty(shape)
    u[0] = 1.0 + 0.2 * np.sin(2 * np.pi * grids[0])
    for i in range(layout.dim):
        u[1 + i] = 0.1 * np.cos(2 * np.pi * grids[i]) * u[0]
    u[layout.energy] = 2.5 + 0.5 * u[0]
    return u


def _time_rhs(ks, u, metrics, ng, iters):
    ks.rhs(u, metrics, ng)  # warm caches / scratch
    samples = []
    for _ in range(iters):
        t0 = time.perf_counter()
        ks.rhs(u, metrics, ng)
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def test_fused_weno_speedup():
    """host vs fused wall time of the full WENO right-hand side."""
    rows = []
    for dim, n, iters in ((2, 64, 20), (3, 24, 7)):
        layout = StateLayout(dim=dim, nspecies=1)
        eos = IdealGasEOS()
        metrics = CartesianMetrics([0.01] * dim)
        times = {}
        for target in ("host", "fused"):
            ks = make_kernels("cpp", layout, eos,
                              exec_backend=make_exec_backend(target))
            u = _smooth_state(layout, ks.nghost, n)
            times[target] = _time_rhs(ks, u, metrics, ks.nghost, iters)
        speedup = times["host"] / times["fused"]
        rows.append((f"{dim}D {n}^{dim}", f"{times['host']*1e3:.2f}",
                     f"{times['fused']*1e3:.2f}", f"{speedup:.2f}x"))
        record("fused_kernels", f"weno_speedup_dim{dim}", speedup, "x",
               host_ms=times["host"] * 1e3, fused_ms=times["fused"] * 1e3)
        assert speedup >= MIN_SPEEDUP, (
            f"dim={dim}: fused only {speedup:.2f}x over host "
            f"(need >= {MIN_SPEEDUP}x)")
    table("fused WENO RHS: host vs fused",
          ("box", "host ms", "fused ms", "speedup"), rows)


def _run_dmr(target):
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(
        version="2.1", nranks=6, ranks_per_node=6, max_level=1,
        max_grid_size=32, blocking_factor=8, regrid_int=2,
        backend_target=target))
    sim.initialize()
    sim.run(DMR_STEPS)
    return sim


def test_fused_dmr_drift_and_scratch():
    """Fused-vs-host drift on the DMR deck + scratch-cache steady state."""
    host = _run_dmr("host")
    fused = _run_dmr("fused")
    try:
        va, vb = flow_variables(host), flow_variables(fused)
        drift = 0.0
        for k in va:
            scale = float(np.sqrt(np.mean(va[k] ** 2))) or 1.0
            drift = max(drift, l2_difference(va[k], vb[k]) / scale)
        digits = float(-np.log10(max(drift, 1e-16)))
        scratch = fused.exec_backend.scratch.stats()
        table("fused DMR validation",
              ("rel L2 drift", "matched digits", "scratch hit rate",
               "scratch MiB"),
              [(f"{drift:.3e}", f"{digits:.1f}",
                f"{scratch['hit_rate']:.3f}",
                f"{scratch['bytes']/2**20:.2f}")])
        record("fused_kernels", "dmr_l2_drift_digits", digits, "digits",
               drift=drift, steps=DMR_STEPS)
        record("fused_kernels", "dmr_scratch_hit_rate",
               scratch["hit_rate"], "fraction",
               entries=scratch["entries"], bytes=scratch["bytes"])
        assert drift <= DRIFT_TOL, (
            f"fused drifted {drift:.3e} from host (tol {DRIFT_TOL})")
        # AMR repeats a small set of box shapes: after a few steps the
        # scratch allocator serves (nearly) everything from cache
        assert scratch["hit_rate"] > 0.9, scratch
    finally:
        host.close()
        fused.close()
