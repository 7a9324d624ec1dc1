"""The WENO combination against its oracle, the scratch cache every
backend owns, what selects the compiled row kernel, and what the fused
target still adds (one launch)."""

import inspect
import re
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.backend import ScratchCache, make_exec_backend
from repro.cases.dmr import DoubleMachReflection
from repro.cases.shocktube import SodShockTube
from repro.core.crocco import Crocco, CroccoConfig
from repro.numerics import native
from repro.numerics.weno import (BETA_K, CANDIDATE_OFFSETS, WenoScheme,
                                 smoothness_matrix, stencil_tables, windows)
from tests.numerics import weno_oracle

# -- combination math --------------------------------------------------------

class TestCombineMath:
    def test_beta_rank2_factorization_matches_quadratic_form(self):
        rng = np.random.default_rng(3)
        _, D1, D2 = stencil_tables(4)
        for r in range(4):
            M = smoothness_matrix(CANDIDATE_OFFSETS[r])
            for _ in range(20):
                v = rng.normal(size=3)
                direct = v @ M @ v
                fast = (D1[r] @ v) ** 2 + BETA_K * (D2[r] @ v) ** 2
                assert abs(direct - fast) <= 1e-12 * max(1.0, abs(direct))

    @pytest.mark.parametrize("variant", ["symbo", "symoo", "js5"])
    def test_combine_into_matches_scheme_combine(self, variant):
        """The shipped ``combine`` against the quadratic-form combination
        it replaced (``tests/numerics/weno_oracle.py``): to rounding on
        smooth, discontinuous and identically-zero data, for 1-/2-/3-D
        leading shapes, on contiguous and on strided windows — and its
        three calling forms (new array, ``out=``, ``add=True``) give the
        same bits, with or without a scratch cache — as does the
        compiled row kernel, where this environment has one."""
        scheme = WenoScheme(variant=variant)
        rng = np.random.default_rng(7)
        data = {
            "smooth": lambda shape: 1.0 + 0.1 * rng.normal(size=shape),
            # a discontinuity exercises the cap and the limiter
            "jump": lambda shape: np.where(rng.random(shape) > 0.5, 1.0, 10.0),
            "zero": np.zeros,
        }
        for kind, make in data.items():
            for lead in ((), (5,), (3, 4)):
                for axis in range(len(lead) + 1):
                    shape = lead[:axis] + (17,) + lead[axis:]
                    strided = windows(make(shape), axis, 0, 12)
                    for cells in (strided, [c.copy() for c in strided]):
                        ref = weno_oracle.combine(scheme, cells)
                        got = scheme.combine(cells)
                        assert np.allclose(got, ref, rtol=1e-12, atol=1e-14), (
                            kind, shape, axis)
                        compiled = weno_oracle.compiled_combine(scheme, cells)
                        assert compiled is None or np.array_equal(compiled, got)
                        scratch = ScratchCache()
                        out = np.empty_like(ref)
                        assert scheme.combine(cells, out=out) is out
                        assert np.array_equal(out, got)
                        scheme.combine(cells, out=out, scratch=scratch)
                        assert np.array_equal(out, got)
                        # accumulate mode adds on top
                        acc = np.ones_like(ref)
                        scheme.combine(cells, out=acc, scratch=scratch,
                                       add=True)
                        assert np.array_equal(acc, 1.0 + got)
                        # nothing a caller keeps lives in the scratch
                        assert not any(np.shares_memory(got, buf) or
                                       np.shares_memory(out, buf)
                                       for buf in scratch._store.values())


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

    def test_arrays_are_writable_contiguous_views(self):
        c = ScratchCache()
        a = c.get("x", (3, 5))
        a[...] = 7.0
        assert a.flags.c_contiguous and a.flags.writeable
        assert (c.get("x", (5, 3)) == 7.0).all()

    def test_backend_scratch_warms_up(self):
        """Every backend owns one cache and every target's sweep runs
        from it: the second RHS of a shape allocates nothing."""
        from repro.numerics.eos import IdealGasEOS
        from repro.numerics.metrics import CartesianMetrics
        from repro.numerics.state import StateLayout
        from repro.kernels.api import make_kernels

        layout = StateLayout(dim=2, nspecies=1)
        for target in ("host", "device", "fused"):
            be = make_exec_backend(target)
            ks = make_kernels("cpp", layout, IdealGasEOS(), exec_backend=be)
            ng = ks.nghost
            rng = np.random.default_rng(0)
            u = np.empty((layout.ncons,)
                         + tuple(16 + 2 * ng for _ in range(2)))
            u[0] = 1.0
            u[1:3] = 0.1 * rng.normal(size=(2,) + u.shape[1:])
            u[layout.energy] = 2.5
            metrics = CartesianMetrics([0.01, 0.01])
            ks.rhs(u, metrics, ng)
            first = be.scratch.stats()
            assert first["misses"] > 0
            ks.rhs(u, metrics, ng)
            second = be.scratch_stats()
            # steady state: same box shape re-served entirely from cache
            assert second["misses"] == first["misses"], target
            assert second["hits"] > first["hits"]
            assert second["hit_rate"] > 0.5


# -- what selects the compiled kernel ------------------------------------------

class TestJitGating:
    def test_env_var(self):
        """No option selects the implementation: the compiler and the cache
        directory are all the loader reads from the environment."""
        read = re.findall(r'environ(?:\.get\(|\[)"(\w+)"',
                          inspect.getsource(native))
        assert set(read) == {"CC", "XDG_CACHE_HOME"}

    @pytest.mark.parametrize("dim", [2, 3])
    def test_row_kernel_hook_with_a_stand_in_kernel(self, dim, monkeypatch):
        """The sweep's one call of the library, without a compiler: a
        NumPy stand-in with the compiled binder's signature must reproduce
        the NumPy path bit for bit on every target, so what is under test
        is the call site — state and stored metrics in, the backend's
        scratch, the stage's directions bound at once, one right-hand side
        made by the first direction and handed to the others, once per
        direction."""
        from repro.kernels.api import make_kernels
        from repro.numerics.eos import IdealGasEOS
        from repro.numerics.metrics import CurvilinearMetrics, StackedMetrics
        from repro.numerics.state import StateLayout

        calls, layout = [], StateLayout(dim=dim, nspecies=1)

        def bind(scheme, u, ms, J, order, ng, gamma, distributed,
                 scratch, out=None, add=False):
            assert order == tuple(range(dim))[::-1] and len(ms) == dim
            assert scratch is ks.exec_backend.scratch and not add

            def one(m, direction, add):
                assert native.split_takes(u, m, J) and distributed

                def call():
                    assert add == (len(calls) % dim != 0)
                    assert not add or out is calls[-1]
                    with monkeypatch.context() as mp:
                        weno_oracle.use_numpy_sweep(mp)
                        res = ks.convective.divergence(
                            layout, IdealGasEOS(gamma), u, SimpleNamespace(
                                m=lambda d: m, jacobian=lambda: J),
                            direction, ng, scratch, out if add else None)
                    out[...] = res
                    calls.append(out)
                call.out = out
                return call
            return [one(m, d, k > 0) for k, (m, d) in enumerate(zip(ms, order))]

        rng = np.random.default_rng(4)
        grown = tuple(5 + d + 2 * 4 for d in range(dim))
        idx = np.stack(np.meshgrid(*[np.arange(float(n)) for n in grown],
                                   indexing="ij"))
        metrics = StackedMetrics([CurvilinearMetrics.from_coordinates(
            0.1 * idx + 0.01 * np.sin(idx[::-1] + k)) for k in range(2)])
        u = np.empty((layout.ncons, 2) + grown)  # a batch of two
        u[0] = 1.0 + 0.2 * rng.random((2,) + grown)
        u[1:1 + dim] = 0.1 * rng.normal(size=(dim, 2) + grown)
        u[layout.energy] = 2.5
        results = {}
        stand_in = native.Kernels(None, None, bind, None)
        for target, kernels in (("host", None), ("device", stand_in),
                                ("fused", stand_in)):
            monkeypatch.setattr(native, "_kernel", kernels)
            ks = make_kernels("cpp", layout, IdealGasEOS(),
                              exec_backend=make_exec_backend(target))
            assert ks.nghost == 4
            results[target] = ks.rhs(u, metrics, 4)
        assert len(calls) == 2 * dim
        assert np.array_equal(results["device"], results["host"])
        assert np.array_equal(results["fused"], results["host"])


# -- one sweep on every target -----------------------------------------------

def assert_same_state(sim_a, sim_b):
    """Every fab of every level, ghost cells included, bit for bit."""
    assert sim_a.finest_level == sim_b.finest_level
    for lev in range(sim_a.finest_level + 1):
        for (i, fa), (_, fb) in zip(sim_a.state[lev], sim_b.state[lev]):
            assert np.array_equal(fa.whole(), fb.whole()), (lev, i)


def run_sod(backend_target, steps=5):
    sim = Crocco(SodShockTube(ncells=128),
                 CroccoConfig(version="1.1", max_grid_size=64,
                              backend_target=backend_target))
    sim.initialize()
    sim.run(steps)
    return sim


def run_dmr(backend_target, steps=3):
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(
        version="2.1", nranks=6, ranks_per_node=6, max_level=1,
        max_grid_size=32, blocking_factor=8, regrid_int=2,
        backend_target=backend_target))
    sim.initialize()
    sim.run(steps)
    return sim


class TestDriftBound:
    """``fused`` runs the sweep every target runs: no drift at all.  The
    serial DMR cell is a row of
    ``tests/core/test_version_target_table.py``."""

    def test_sod_fused_vs_host(self):
        host = run_sod("host")
        fused = run_sod("fused")
        try:
            assert_same_state(host, fused)
        finally:
            host.close(), fused.close()


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
            # both serve their scratch from the backend's cache
            assert fused.exec_backend.scratch.hit_rate > 0.9
            assert device.exec_backend.scratch.hit_rate > 0.9
        finally:
            device.close(), fused.close()
