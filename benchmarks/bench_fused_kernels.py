"""The shipped WENO sweep against the reference arithmetic it replaced.

Every execution target runs one sweep
(:meth:`repro.numerics.fluxes.ConvectiveFlux.divergence`): transverse
pre-crop, scratch-backed sweep-major split, only the needed interfaces,
and the rank-2 ``out=`` combination — what used to be the
``fused`` target's private arithmetic.  The pre-change combination (a
9-term quadratic form per candidate stencil, every term a fresh
temporary) is kept in ``tests/numerics/weno_oracle.py``; this benchmark
holds the three claims that gated the ``fused`` target, restated for the
sweep every target now runs:

1. **WENO kernel-class speedup** >= 1.5x of the shipped sweep over the
   same sweep on the reference-oracle arithmetic, on the RK right-hand
   side of the DMR-shaped boxes the AMR hierarchy produces (``fused``
   over ``host`` is ~1.0x by design now: the arithmetic was the speed-up),
2. **drift bound**: shipped-vs-oracle relative L2 difference <= 1e-7
   after a multi-step DMR run on ``device`` — the paper's
   port-validation criterion (Sec. IV-A), recorded as matched decimal
   digits so the perf gate treats more digits as better,
3. **scratch steady state**: the ``device`` backend's cache hit rate
   approaches 1 (Sec. IV-B's hoisted scratch allocation) — scratch
   reallocated per launch is the regression this guards.

Rows land in BENCH_results.json as the ``fused_kernels`` series for
``tools/bench_gate.py``.
"""

import time

import numpy as np

from benchmarks._record import record
from benchmarks.conftest import table
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.core.validation import flow_variables, l2_difference
from repro.kernels.api import make_kernels
from repro.numerics.eos import IdealGasEOS
from repro.numerics.metrics import CartesianMetrics
from repro.numerics.state import StateLayout
from tests.numerics import weno_oracle

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


def test_fused_weno_speedup(monkeypatch):
    """Wall time of the full WENO right-hand side: the shipped sweep vs
    the same sweep on the reference-oracle arithmetic."""
    rows = []
    for dim, n, iters in ((2, 64, 20), (3, 24, 7)):
        layout = StateLayout(dim=dim, nspecies=1)
        metrics = CartesianMetrics([0.01] * dim)
        ks = make_kernels("cpp", layout, IdealGasEOS())
        u = _smooth_state(layout, ks.nghost, n)
        times = {"shipped": _time_rhs(ks, u, metrics, ks.nghost, iters)}
        with monkeypatch.context() as patch:
            weno_oracle.install(patch)
            times["oracle"] = _time_rhs(ks, u, metrics, ks.nghost, iters)
        speedup = times["oracle"] / times["shipped"]
        rows.append((f"{dim}D {n}^{dim}", f"{times['oracle']*1e3:.2f}",
                     f"{times['shipped']*1e3:.2f}", f"{speedup:.2f}x"))
        record("fused_kernels", f"weno_speedup_dim{dim}", speedup, "x",
               oracle_ms=times["oracle"] * 1e3,
               shipped_ms=times["shipped"] * 1e3)
        assert speedup >= MIN_SPEEDUP, (
            f"dim={dim}: shipped sweep only {speedup:.2f}x over the "
            f"reference arithmetic (need >= {MIN_SPEEDUP}x)")
    table("WENO RHS: reference-oracle arithmetic vs shipped sweep",
          ("box", "oracle ms", "shipped ms", "speedup"), rows)


def _run_dmr(target):
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(
        version="2.1", nranks=6, ranks_per_node=6, max_level=1,
        max_grid_size=32, blocking_factor=8, regrid_int=2,
        backend_target=target))
    sim.initialize()
    sim.run(DMR_STEPS)
    return sim


def test_fused_dmr_drift_and_scratch(monkeypatch):
    """Shipped-vs-oracle drift on the DMR deck + scratch-cache steady
    state, on the ``device`` target."""
    device = _run_dmr("device")
    with monkeypatch.context() as patch:
        weno_oracle.install(patch)
        oracle = _run_dmr("host")
    try:
        va, vb = flow_variables(oracle), flow_variables(device)
        drift = 0.0
        for k in va:
            scale = float(np.sqrt(np.mean(va[k] ** 2))) or 1.0
            drift = max(drift, l2_difference(va[k], vb[k]) / scale)
        digits = float(-np.log10(max(drift, 1e-16)))
        scratch = device.exec_backend.scratch.stats()
        table("shipped sweep DMR validation (device)",
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
            f"shipped sweep drifted {drift:.3e} from the reference "
            f"arithmetic (tol {DRIFT_TOL})")
        # one buffer per role, grown to the largest request: after the
        # first stage (nearly) everything is served from the cache
        assert scratch["hit_rate"] > 0.9, scratch
    finally:
        oracle.close()
        device.close()
