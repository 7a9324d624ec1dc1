"""The fused optimizing target: combination math, drift bound, scratch."""

import multiprocessing
from collections import Counter

import numpy as np
import pytest

from repro.backend import ScratchCache, make_exec_backend
from repro.backend.fused import JIT_MODES, FusedBackend, numba_available
from repro.cases.dmr import DoubleMachReflection
from repro.cases.shocktube import SodShockTube
from repro.core.crocco import ConfigError, Crocco, CroccoConfig
from repro.core.validation import flow_variables, l2_difference
from repro.kernels.fused import combine_into, stencil_tables
from repro.numerics.weno import (CANDIDATE_OFFSETS, WenoScheme,
                                 smoothness_matrix)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: the paper's port-validation criterion (Sec. IV-A)
DRIFT_TOL = 1e-7


# -- combination math --------------------------------------------------------

class TestCombineMath:
    def test_beta_rank2_factorization_matches_quadratic_form(self):
        rng = np.random.default_rng(3)
        _, D1, D2 = stencil_tables(4)
        from repro.kernels.fused import BETA_K

        for r in range(4):
            M = smoothness_matrix(CANDIDATE_OFFSETS[r])
            for _ in range(20):
                v = rng.normal(size=3)
                direct = v @ M @ v
                fast = (D1[r] @ v) ** 2 + BETA_K * (D2[r] @ v) ** 2
                assert abs(direct - fast) <= 1e-12 * max(1.0, abs(direct))

    @pytest.mark.parametrize("variant", ["symbo", "symoo", "js5"])
    def test_combine_into_matches_scheme_combine(self, variant):
        scheme = WenoScheme(variant=variant)
        rng = np.random.default_rng(7)
        # mix of smooth data and a discontinuity to exercise the limiter
        smooth = [1.0 + 0.1 * rng.normal(size=(5, 40)) for _ in range(6)]
        jump = [np.where(rng.random((5, 40)) > 0.5, 1.0, 10.0)
                for _ in range(6)]
        for cells in (smooth, jump):
            ref = scheme.combine(cells)
            scratch = ScratchCache()
            out = np.empty_like(ref)
            combine_into(scheme, cells, scratch, out)
            assert np.allclose(out, ref, rtol=1e-12, atol=1e-14)
            # accumulate mode adds on top
            acc = np.ones_like(ref)
            combine_into(scheme, cells, scratch, acc, add=True)
            assert np.allclose(acc, 1.0 + ref, rtol=1e-12, atol=1e-14)


# -- scratch cache -----------------------------------------------------------

class TestScratchCache:
    def test_reuse_and_counters(self):
        """One buffer per role, grown to the largest request."""
        c = ScratchCache()
        a = c.get("x", (4, 8))
        b = c.get("x", (4, 8))
        assert a.shape == b.shape == (4, 8) and np.shares_memory(a, b)
        assert (c.hits, c.misses) == (1, 1)
        # same role, smaller or reshaped request: the same buffer
        small = c.get("x", (2, 3, 5))
        assert small.shape == (2, 3, 5) and np.shares_memory(small, a)
        assert (c.hits, c.misses) == (2, 1)
        # a larger request regrows the role's buffer, once
        big = c.get("x", (4, 9))
        assert not np.shares_memory(big, a)
        assert np.shares_memory(c.get("x", (4, 9)), big)
        assert np.shares_memory(c.get("x", (4, 8)), big)
        assert (c.hits, c.misses) == (4, 2)
        # other roles and dtypes have buffers of their own
        y = c.get("y", (4, 8))
        f = c.get("x", (4, 8), np.float32)
        assert f.dtype == np.float32
        assert not np.shares_memory(y, big) and not np.shares_memory(f, big)
        stats = c.stats()
        assert stats["entries"] == 3
        # the sum over roles of the largest request: regrids add no bytes
        assert stats["bytes"] == 4 * 9 * 8 + 4 * 8 * 8 + 4 * 8 * 4
        c.clear()
        assert c.stats()["entries"] == 0 and c.hits == 0

    def test_arrays_are_writable_contiguous_views(self):
        c = ScratchCache()
        a = c.get("x", (3, 5))
        a[...] = 7.0
        assert a.flags.c_contiguous and a.flags.writeable
        assert (c.get("x", (5, 3)) == 7.0).all()

    def test_backend_scratch_warms_up(self):
        be = make_exec_backend("fused")
        layout_shape = (5, 24, 24)
        from repro.numerics.eos import IdealGasEOS
        from repro.numerics.metrics import CartesianMetrics
        from repro.numerics.state import StateLayout
        from repro.kernels.api import make_kernels

        layout = StateLayout(dim=2, nspecies=1)
        ks = make_kernels("cpp", layout, IdealGasEOS(), exec_backend=be)
        ng = ks.nghost
        rng = np.random.default_rng(0)
        u = np.empty((layout.ncons,) + tuple(16 + 2 * ng for _ in range(2)))
        u[0] = 1.0
        u[1:3] = 0.1 * rng.normal(size=(2,) + u.shape[1:])
        u[layout.energy] = 2.5
        metrics = CartesianMetrics([0.01, 0.01])
        ks.rhs(u, metrics, ng)
        first = be.scratch.stats()
        assert first["misses"] > 0
        ks.rhs(u, metrics, ng)
        second = be.scratch.stats()
        # steady state: same box shape re-served entirely from cache
        assert second["misses"] == first["misses"]
        assert second["hits"] > first["hits"]
        assert be.scratch_stats()["shapes"] >= 1


# -- JIT gating --------------------------------------------------------------

class TestJitGating:
    def test_modes(self, monkeypatch):
        monkeypatch.delenv("REPRO_FUSED_JIT", raising=False)
        be = FusedBackend()
        assert be.jit_mode == "auto"
        assert be.jit_enabled == numba_available()
        off = FusedBackend(jit="off")
        assert not off.jit_enabled

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSED_JIT", "off")
        assert not FusedBackend().jit_enabled

    def test_bad_mode_is_config_error(self):
        with pytest.raises(ConfigError, match="REPRO_FUSED_JIT"):
            FusedBackend(jit="cuda")
        assert set(JIT_MODES) == {"auto", "on", "off"}

    def test_on_without_numba_warns_and_falls_back(self):
        if numba_available():
            pytest.skip("numba installed: no fallback to exercise")
        with pytest.warns(RuntimeWarning, match="numba"):
            be = FusedBackend(jit="on")
        assert not be.jit_enabled

    @pytest.mark.skipif(not numba_available(), reason="numba not installed")
    def test_jit_combine_matches_numpy_path(self):
        from repro.kernels.fused import get_jit_combine
        from repro.numerics.weno import WENO_EPS_FLOOR

        kernel = get_jit_combine()
        assert kernel is not None
        scheme = WenoScheme()
        rng = np.random.default_rng(11)
        vp = 1.0 + 0.3 * rng.normal(size=(10, 20))
        vm = 1.0 + 0.3 * rng.normal(size=(10, 20))
        start, nif = 1, 12
        C, D1, D2 = stencil_tables(4)
        out = np.empty((10, nif))
        kernel(vp, vm, start, C, D1, D2, scheme.linear_weights(),
               scheme.eps, WENO_EPS_FLOOR, scheme.downwind_limit, out)
        cells_p = [vp[:, start + k: start + k + nif] for k in range(6)]
        cells_m = [vm[:, start + k: start + k + nif] for k in range(6)]
        ref = scheme.combine(cells_p) + scheme.combine(cells_m[::-1])
        assert np.allclose(out, ref, rtol=1e-12, atol=1e-14)


# -- end-to-end drift bound --------------------------------------------------

def relative_drift(sim_a, sim_b):
    """Max over flow variables of rel. L2 difference (paper criterion)."""
    va, vb = flow_variables(sim_a), flow_variables(sim_b)
    worst = 0.0
    for k in va:
        scale = float(np.sqrt(np.mean(va[k] ** 2))) or 1.0
        worst = max(worst, l2_difference(va[k], vb[k]) / scale)
    return worst


def run_sod(backend_target, executor="serial", steps=5):
    sim = Crocco(SodShockTube(ncells=128),
                 CroccoConfig(version="1.1", max_grid_size=64,
                              executor=executor,
                              workers=2 if executor == "pool" else None,
                              backend_target=backend_target))
    sim.initialize()
    sim.run(steps)
    return sim


def run_dmr(backend_target, executor="serial", steps=3):
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(
        version="2.1", nranks=6, ranks_per_node=6, max_level=1,
        max_grid_size=32, blocking_factor=8, regrid_int=2,
        executor=executor, workers=2 if executor == "pool" else None,
        backend_target=backend_target))
    sim.initialize()
    sim.run(steps)
    return sim


class TestDriftBound:
    def test_sod_fused_vs_host(self):
        host = run_sod("host")
        fused = run_sod("fused")
        try:
            assert relative_drift(host, fused) <= DRIFT_TOL
        finally:
            host.close(), fused.close()

    def test_dmr_fused_vs_host_serial(self):
        host = run_dmr("host")
        fused = run_dmr("fused")
        try:
            drift = relative_drift(host, fused)
            assert 0 <= drift <= DRIFT_TOL
        finally:
            host.close(), fused.close()

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_dmr_fused_vs_host_pool(self):
        host = run_dmr("host", executor="pool")
        fused = run_dmr("fused", executor="pool")
        try:
            assert relative_drift(host, fused) <= DRIFT_TOL
        finally:
            host.close(), fused.close()

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_fused_serial_vs_pool_identical(self):
        serial = run_dmr("fused", executor="serial")
        pool = run_dmr("fused", executor="pool")
        try:
            for lev in range(serial.finest_level + 1):
                for (i, sfab), (_, pfab) in zip(serial.state[lev],
                                                pool.state[lev]):
                    err = float(np.abs(sfab.whole() - pfab.whole()).max())
                    assert err < 1e-12, f"lev {lev} box {i}: {err}"
        finally:
            serial.close(), pool.close()


class TestFusedLaunchStream:
    def test_fused_launch_names_and_point_parity(self):
        device = run_dmr("device")
        fused = run_dmr("fused")
        try:
            def flux_launches(sim):
                """{flux kernel name: launches} over every device."""
                out = Counter()
                for d in sim.devices:
                    for r, n in d.table.items():
                        if r.kernel_class == "flux":
                            out[r.name] += n
                return out

            dev_recs = flux_launches(device)
            fus_recs = flux_launches(fused)
            assert set(dev_recs) == {"WENOx", "WENOy"}
            assert set(fus_recs) == {"WENOxy"}
            # fewer, wider launches covering the same point total
            assert fus_recs.total() < dev_recs.total()
            dev_total = device.kernels.exec_backend.class_totals()
            fus_total = fused.kernels.exec_backend.class_totals()
            assert (fus_total["flux"]["points"]
                    == dev_total["flux"]["points"])
            # the fused target serves scratch from its cache
            assert fused.kernels.exec_backend.scratch.hits > 0
        finally:
            device.close(), fused.close()

    def test_characteristic_reconstruction_falls_back(self):
        from repro.kernels.api import make_kernels
        from repro.numerics.eos import IdealGasEOS
        from repro.numerics.fluxes import ConvectiveFlux
        from repro.numerics.metrics import CartesianMetrics
        from repro.numerics.state import StateLayout

        layout = StateLayout(dim=2, nspecies=1)
        be = make_exec_backend("fused")
        ks = make_kernels("cpp", layout, IdealGasEOS(),
                          convective=ConvectiveFlux(characteristic=True),
                          exec_backend=be)
        ng = ks.nghost
        u = np.ones((layout.ncons,) + tuple(8 + 2 * ng for _ in range(2)))
        u[1:3] = 0.0
        u[layout.energy] = 2.5
        ks.rhs(u, CartesianMetrics([0.1, 0.1]), ng)
        names = {r.name for d in be.devices for r in d.table}
        assert {"WENOx", "WENOy"} <= names and "WENOxy" not in names
