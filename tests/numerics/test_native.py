"""The compiled kernels of the sweep (``repro.numerics.native``): the
pre-pass bitwise ``lax_friedrichs_split``, the row kernel bitwise the
NumPy combination and the one-call sweep bitwise the NumPy
``divergence`` on everything the sweep can hand them, NaN for NaN;
inputs outside the library's domain take the NumPy code silently; and —
as chaos cases — every way of not getting a library ends in the NumPy
path for all three with one warning and the same trajectory.
"""

import ctypes
import itertools
import math
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from importlib import resources
from types import SimpleNamespace
from pathlib import Path

import numpy as np
import pytest

from repro.backend import make_exec_backend
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.kernels.api import make_kernels
from repro.kernels.batch import bind_batches, rhs_update
from repro.kernels.device import GpuDevice
from repro.numerics import native
from repro.numerics.cfl import local_max_rate
from repro.numerics.eos import IdealGasEOS, MixtureEOS, Species
from repro.numerics.fluxes import (ConvectiveFlux, _crop_transverse,
                                   lax_friedrichs_split)
from repro.numerics.metrics import (CartesianMetrics, CurvilinearMetrics,
                                    StackedMetrics)
from repro.numerics.state import StateLayout
from repro.numerics.viscous import ViscousFlux, constant_viscosity
from repro.numerics.weno import NO_SCRATCH, WenoScheme, windows
from tests.numerics import weno_oracle

ROOT = Path(__file__).resolve().parents[2]

SCHEMES = [WenoScheme(), WenoScheme(variant="symoo"),
           WenoScheme(variant="js5"), WenoScheme(downwind_limit=0.0),
           WenoScheme(eps=1e-6, downwind_limit=2.0)]


def compiled(name):
    k = native.kernels()
    if k is None:
        pytest.skip("no compiled kernel here: " + native.status()["detail"])
    return getattr(k, name)


@pytest.fixture
def kernel():
    return compiled("weno_rows")


@pytest.fixture
def split():
    return compiled("flux_split")


@pytest.fixture
def sweep():
    """One direction of the compiled sweep, bound and run at once: the
    result, or ``None`` for arrays the library does not take."""
    bind = compiled("bind_sweep")

    def run(scheme, u, m, J, direction, ng, gamma, distributed, scratch,
            out=None):
        call = bind(scheme, u, m, J, direction, ng, gamma, distributed,
                    scratch, out, out is not None)
        if call is not None:
            call()
            return call.out
    return run


def spy(calls):
    """The compiled kernels, noting each sweep the library took."""
    real = native.kernels()

    def bind(*args):
        call = real.bind_sweep(*args)
        if call is not None:
            calls.append(args)
        return call
    return real._replace(bind_sweep=bind)


def reference(scheme, fp, fm, start, nif):
    ref = scheme.combine(windows(fp, 0, start, nif))
    return scheme.combine_minus(windows(fm, 0, start, nif), out=ref, add=True)


# -- equivalence ---------------------------------------------------------------

@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: (
    f"{s.variant}-eps{s.eps:g}-limit{s.downwind_limit:g}"))
def test_rows_are_bitwise_the_numpy_combination(kernel, scheme):
    """3 and 4 stencils, limiter on and off, one interface, one column,
    a batch axis, a 3-D rest, an offset start — smooth and jump data."""
    rng = np.random.default_rng(5)
    shapes = [((6,), 0), ((6, 1), 0), ((11, 1), 2), ((9, 17), 0),
              ((12, 5, 2, 7), 1), ((38, 5, 3, 4, 6), 0)]
    for shape, start in shapes:
        nif = shape[0] - 5 - start
        for kind in ("smooth", "jump"):
            fp, fm = (1.0 + 0.1 * rng.normal(size=(2,) + shape)
                      if kind == "smooth" else
                      np.where(rng.random((2,) + shape) > 0.5, 1.0, 10.0)
                      + 0.01 * rng.normal(size=(2,) + shape))
            out = np.full((nif,) + shape[1:], np.nan)
            kernel(scheme, fp, fm, start, out)
            assert np.array_equal(out, reference(scheme, fp, fm, start, nif)), (
                shape, start, kind)


@pytest.mark.parametrize("scheme", SCHEMES[:4], ids=lambda s: (
    f"{s.variant}-limit{s.downwind_limit:g}"))
def test_nan_and_inf_windows_come_back_nan_where_numpy_says_so(kernel, scheme):
    """``np.minimum`` / ``np.maximum`` propagate NaN, a C ``a < b ? a : b``
    does not: a bad value at any position of the plus or of the minus
    window must poison exactly the interfaces it poisons in NumPy (the
    watchdog's ``nan`` fault reads ``isfinite`` of the state)."""
    rng = np.random.default_rng(9)
    base = 1.0 + 0.3 * rng.normal(size=(2, 16, 3))
    for bad in (np.nan, np.inf, -np.inf, 1e200, -1e200, 1e-200):
        for which in (0, 1):
            for row in range(16):
                f = base.copy()
                f[which, row, 1] = bad
                out = np.empty((11, 3))
                kernel(scheme, f[0], f[1], 0, out)
                with np.errstate(all="ignore"):
                    ref = reference(scheme, f[0], f[1], 0, 11)
                assert np.array_equal(np.isnan(out), np.isnan(ref)), (bad, row)
                assert np.array_equal(out, ref, equal_nan=True), (bad, row)


def test_kernel_checks_what_it_is_handed(kernel):
    ok = np.zeros((8, 4))
    out = np.zeros((3, 4))
    kernel(WenoScheme(), ok, ok, 0, out)
    for fp, fm, start, o in [
            (ok.astype(np.float32), ok, 0, out),       # dtype
            (ok, ok[:, ::2], 0, out),                  # shape
            (np.zeros((8, 8))[:, ::2], ok, 0, out),    # not contiguous
            (ok, ok, 1, out),                          # runs off the end
            (ok, ok, -1, out),
            (ok, ok, 0, np.zeros((3, 5)))]:
        with pytest.raises(ValueError, match="weno_rows"):
            kernel(WenoScheme(), fp, fm, start, o)


# -- the pre-pass ---------------------------------------------------------------

EOS = IdealGasEOS()


def state(dim, batch, ng, rng, strided=False):
    """A positive random state ``u (dim + 2, *batch, *grown)`` with signed
    zeros in the momenta, and ``m`` (all directions), ``J`` of its shape;
    ``strided`` makes each ``m(d)`` a member-style view, its components
    far apart."""
    grown = tuple(6 + d + 2 * ng for d in range(dim))
    shape = batch + grown
    u = np.empty((dim + 2,) + shape)
    u[0] = 1.0 + rng.random(shape)
    u[1:1 + dim] = rng.normal(size=(dim,) + shape)
    u[-1] = 3.0 + rng.random(shape)
    u[1].flat[::7], u[2].flat[::5] = 0.0, -0.0
    m = rng.normal(size=(dim, dim, 3) + shape)[:, :, 1 if strided else 0]
    if not strided:
        m = np.ascontiguousarray(m)
    m.flat[::11] = 0.0
    return u, m, 0.5 + rng.random(shape)


def both_splits(split, u, m, J, d, ng, form="fused"):
    """``(alpha, F+, F-)`` of the NumPy and of the compiled pre-pass."""
    dim = len(m)
    axis = u.ndim - dim + d
    shape = _crop_transverse(u, d, ng, dim).shape
    ref, got = np.full((2, 2, shape[axis]) + shape[:axis] + shape[axis + 1:],
                       np.nan)
    with np.errstate(all="ignore"):
        a_ref = lax_friedrichs_split(StateLayout(dim=dim), EOS, u, m, J, d,
                                     ng, form, *ref)
    a_got = split(u, m, J, d, ng, EOS.gamma, form == "distributed", *got)
    return (a_ref.reshape(a_got.shape), *ref), (a_got, *got)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
def test_split_is_bitwise_the_numpy_prepass(split, dim, strided):
    """Every direction x energy form x no batch axis and batches of 1, 2,
    5 x ng 4 and 5, to the sign of a zero."""
    rng = np.random.default_rng(dim)
    for batch, ng in itertools.product([(), (1,), (2,), (5,)], [4, 5]):
        u, m, J = state(dim, batch, ng, rng, strided)
        for d, form in itertools.product(range(dim), ("fused", "distributed")):
            ref, got = both_splits(split, u, m[d], J, d, ng, form)
            for r, g in zip(ref, got):
                assert np.array_equal(bits(r), bits(g)), (batch, ng, d, form)


@pytest.mark.parametrize("dim", [2, 3])
def test_bad_values_poison_what_they_poison_in_numpy(split, dim):
    """NaN, +-inf, a negative pressure and a vacuum in each component of
    one cell — a valid one and a transverse ghost: ``alpha`` (a lone NaN
    in ``E`` reaches it through ``a``; ``ndarray.max`` and ``np.maximum``
    propagate NaN, C comparisons do not) and every ``F+-`` value are NaN
    where NumPy's are and equal elsewhere."""
    rng = np.random.default_rng(3)
    ng = 4
    u0, m, J = state(dim, (2,), ng, rng)
    for cell in [(1,) + (ng + 1,) * dim, (0,) + (1,) * dim]:
        for comp, bad in itertools.product(
                range(dim + 2), (np.nan, np.inf, -np.inf, -1e3, 0.0, 1e-310)):
            u = u0.copy()
            u[(comp,) + cell] = bad
            for d in range(dim):
                ref, got = both_splits(split, u, m[d], J, d, ng)
                for r, g in zip(ref, got):
                    assert np.array_equal(np.isnan(r), np.isnan(g)), (comp, bad, d)
                    assert np.array_equal(r, g, equal_nan=True), (comp, bad, d)
    u = u0.copy()
    u[(dim + 1, 1) + (1,) * dim] = np.nan  # E of a corner ghost of member 1
    (alpha, fp, _), _ = both_splits(split, u, m[0], J, 0, ng)
    assert np.isnan(alpha).tolist() == [False, True]
    assert np.isnan(fp[:, :, 1]).all() and not np.isnan(fp[:, :, 0]).any()


def test_split_checks_what_it_is_handed(split):
    rng = np.random.default_rng(4)
    u, m, J = state(2, (2,), 4, rng)
    fp, fm = np.empty((2, 14, 4, 2, 7))
    split(u, m[0], J, 0, 4, 1.4, False, fp, fm)
    wide = np.empty((14, 4, 2, 14))
    for args in [
            (u.astype(np.float32), m[0], J, 0, 4, 1.4, False, fp, fm),  # dtype
            (u, m[0].astype(np.float32), J, 0, 4, 1.4, False, fp, fm),
            (u, m[0], J.astype(np.float32), 0, 4, 1.4, False, fp, fm),
            (u[..., ::2], m[0][..., ::2], J[..., ::2], 0, 2, 1.4, False,
             fp, fm),                                          # contiguity
            (u, m[0], np.empty((2, 14, 30))[..., ::2], 0, 4, 1.4, False, fp, fm),
            (u, m[0], J, 0, 4, 1.4, False, fp, wide[..., ::2]),
            (u, np.moveaxis(np.empty((2, 14, 15, 2)), -1, 0), J, 0, 4, 1.4,
             False, fp, fm),                                   # cell-major m
            (u, m[0], J[:1], 0, 4, 1.4, False, fp, fm),        # shape
            (u[:3], m[0], J, 0, 4, 1.4, False, fp, fm),
            (u, m[0], J, 1, 4, 1.4, False, fp, fm),
            (u, m[0], J, 0, 4, 1.4, False, fp, fm[:13]),
            (u, m[0], J, 2, 4, 1.4, False, fp, fm),            # bounds
            (u, m[0], J, -1, 4, 1.4, False, fp, fm),
            (u, m[0], J, 0, -1, 1.4, False, fp, fm),
            (u, m[0], J, 0, 7, 1.4, False, fp, fm)]:
        with pytest.raises(ValueError, match="flux_split"):
            split(*args)


# -- the whole sweep in one call ----------------------------------------------

def as_metrics(m, J):
    """``m`` (every direction's) and ``J`` as metrics, views as they are
    (a call binds them with no ghost cells to crop: ``interior(0)``)."""
    metrics = SimpleNamespace(m=m.__getitem__, jacobian=lambda: J)
    metrics.interior = lambda ng: metrics
    return metrics


def both_sweeps(u, m, J, order, ng, form="fused"):
    """The directions of ``order`` accumulated into one right-hand side,
    then each on its own: ``[sum, *singles]`` of the NumPy sweep and of
    the compiled one, and how many calls the library served."""
    dim, flux, calls = len(m), ConvectiveFlux(split_form=form), []
    args = StateLayout(dim=dim), EOS, u, as_metrics(m, J)

    def run():
        total = None
        for d in order:
            total = flux.divergence(*args, d, ng, out=total)
        return [total] + [flux.divergence(*args, d, ng) for d in order]

    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(native, "_kernel", spy(calls))
        got = run()
        weno_oracle.use_numpy_sweep(mp)
        return run(), got, len(calls)


@pytest.mark.parametrize("dim", [2, 3])
def test_sweep_is_bitwise_the_numpy_divergence(sweep, dim):
    """Every direction x energy form x no batch axis and batches of 1, 2,
    5 x ng 4 and 5 x the accumulation order of either ordering, new
    ``out`` and accumulated, to the sign of a zero (a uniform state's
    right-hand side is all ``-0.0``)."""
    rng = np.random.default_rng(10 + dim)
    for batch, ng in itertools.product([(), (1,), (2,), (5,)], [4, 5]):
        u, m, J = state(dim, batch, ng, rng)
        flat = [np.ones_like(x) for x in (u, m, J)]
        flat[0][-1] = 3.0
        for form, order in itertools.product(
                ("fused", "distributed"), (range(dim), range(dim)[::-1])):
            for arrays in (u, m, J), flat:
                ref, got, served = both_sweeps(*arrays, order, ng, form)
                assert served == 2 * dim
                for r, g in zip(ref, got):
                    assert g.flags.c_contiguous and g.shape == r.shape
                    assert np.array_equal(bits(r), bits(g)), (batch, ng, form)
        assert np.signbit(got[0]).all() and not got[0].any()


@pytest.mark.parametrize("dim", [2, 3])
def test_sweep_poisons_what_numpy_poisons(sweep, dim):
    """NaN, +-inf, a negative pressure and a vacuum in each component of
    one cell — a valid one, a ghost of the sweep axis and a corner ghost
    (which only ``alpha`` sees) — and a NaN, a zero and an inf in ``J``:
    the right-hand side is NaN where NumPy's is and equal elsewhere."""
    rng = np.random.default_rng(12)
    ng = 4
    u0, m, J0 = state(dim, (2,), ng, rng)
    cells = [(1,) + (ng + 1,) * dim, (0, 1) + (ng + 2,) * (dim - 1),
             (0,) + (1,) * dim]
    cases = [(u0, J0)]
    for cell in cells:
        for comp, bad in itertools.product(
                range(dim + 2), (np.nan, np.inf, -np.inf, -1e3, 0.0, 1e-310)):
            u = u0.copy()
            u[(comp,) + cell] = bad
            cases.append((u, J0))
        for bad in (np.nan, 0.0, np.inf):
            J = J0.copy()
            J[cell] = bad
            cases.append((u0, J))
    poisoned = 0
    for u, J in cases:
        ref, got, served = both_sweeps(u, m, J, range(dim), ng)
        assert served == 2 * dim
        for r, g in zip(ref, got):
            assert np.array_equal(np.isnan(r), np.isnan(g))
            assert np.array_equal(r, g, equal_nan=True)
        poisoned += bool(np.isnan(ref[0]).any())
    assert 0 < poisoned < len(cases)


def test_a_stage_points_every_direction_at_scratch_it_fits(sweep,
                                                          monkeypatch):
    """A stage bound without a cache (new arrays per request) whose first
    direction needs more scratch than its last: every call points at
    arrays that fit every direction of the stage, and the stage is the
    NumPy sweep."""
    rng = np.random.default_rng(17)
    u, m, J = state(2, (2,), 3, rng)
    need = [max(math.prod(native.sweep_shapes(u.shape, 2, d, 3)[k])
                for d in (0, 1)) for _, k in native.ROLES]
    # (the last direction's split fluxes are the smaller)
    assert math.prod(native.sweep_shapes(u.shape, 2, 1, 3)[1]) < need[0]
    calls = native.kernels().bind_sweep(WenoScheme(), u, [m[0], m[1]], J,
                                        (0, 1), 3, EOS.gamma, False,
                                        NO_SCRATCH)
    for call in calls:
        assert [a.size for a in call.holds[3:7]] == need
        call()
    flux, args = ConvectiveFlux(), (StateLayout(dim=2), EOS, u, as_metrics(m, J))
    weno_oracle.use_numpy_sweep(monkeypatch)
    ref = flux.divergence(*args, 1, 3, out=flux.divergence(*args, 0, 3))
    assert np.array_equal(bits(calls[-1].out), bits(ref))


def test_sweep_checks_what_it_is_handed(sweep):
    """A malformed call raises before a pointer is passed; arrays that are
    not the library's (``split_takes``) are declined with ``None``."""
    rng = np.random.default_rng(13)
    u, m, J = state(2, (2,), 4, rng)
    call = lambda *a, **k: sweep(WenoScheme(), *a, EOS.gamma, False,
                                 k.get("scratch", NO_SCRATCH), k.get("out"))
    out = call(u, m[0], J, 0, 4)
    assert out.shape == (4, 2, 6, 7)
    assert call(u, m[0], J, 1, 4, out=out) is out

    class Scratch:  # a cache that hands back something else
        def __init__(self, spoil):
            self.spoil = spoil

        def get(self, role, shape):
            return self.spoil(np.empty(shape)) if role == "f_iface" else \
                np.empty(shape)

    for kwargs in [
            dict(out=out.astype(np.float32)),                    # dtype
            dict(out=np.empty((4, 2, 6, 14))[..., ::2]),         # contiguity
            dict(out=np.empty((4, 2, 7, 6))),                    # shape
            dict(out=out[:, 0]),
            dict(scratch=Scratch(lambda a: a[1:])),
            dict(scratch=Scratch(lambda a: a.astype(np.float32))),
            dict(scratch=Scratch(lambda a: np.empty(a.shape + (2,))[..., 0]))]:
        with pytest.raises(ValueError, match="weno_sweep"):
            call(u, m[0], J, 0, 4, **kwargs)
    for args in [(u, m[0], J, 2, 4), (u, m[0], J, -1, 4),      # direction
                 (u, m[0], J, 0, 2), (u, m[0], J, 0, -1),      # ng < 3
                 (u, m[0], J, 0, 7),                           # nothing valid
                 (u[..., :8].copy(), m[0][..., :8].copy(),
                  J[..., :8].copy(), 0, 4)]:                   # an empty axis
        with pytest.raises(ValueError, match="weno_sweep"):
            call(*args)
    before = out.copy()
    for args in [(u.astype(np.float32), m[0], J), (u[..., ::2], m[0], J),
                 (u, m[0], J[:1]), (u[:3], m[0], J),
                 (u, np.moveaxis(np.empty((2, 14, 15, 2)), -1, 0), J)]:
        assert call(*args, 0, 4, out=out) is None
    assert np.array_equal(out, before)
    with pytest.raises(ValueError, match="ghost cells"):
        ConvectiveFlux().divergence(StateLayout(dim=2), EOS, u,
                                    as_metrics(m, J), 0, 2)


@pytest.mark.parametrize("ordering", ["fortran", "cpp"])
@pytest.mark.parametrize("precision", ["double", "mixed"])
def test_rhs_update_is_bitwise_either_way(sweep, ordering, precision,
                                          monkeypatch):
    """The sweep's caller, with everything that shares its right-hand
    side: Viscous added to it, ``precision="mixed"`` rounding it, the
    RK update reading it — a batch of three and a batch of one."""
    rng = np.random.default_rng(14)
    layout, ng = StateLayout(dim=2), 4
    kernels = make_kernels(ordering, layout, EOS,
                           viscous=ViscousFlux(constant_viscosity(1e-3)))
    kernels.precision = precision
    case = SimpleNamespace(source=lambda *a, **k: None)
    for n in (3, 1):
        members = [curvilinear((14, 15), rng) for _ in range(n)]
        u0 = state(2, (n,), ng, rng)[0]
        results, calls = [], []
        for numpy in (False, True):
            with monkeypatch.context() as mp:
                mp.setattr(native, "_kernel", spy(calls))
                if numpy:
                    weno_oracle.use_numpy_sweep(mp)
                u = u0.copy()
                du = np.zeros_like(u[:, :, ng:-ng, ng:-ng])
                batch, = bind_batches(kernels, case, [
                    (u, du, np.zeros((2, n, 14, 15)), StackedMetrics(members),
                     (0,) * n)], ng)
                rhs_update(kernels, case, batch, 0.0, 1e-3, 0)
                results.append([u, du])
        assert len(calls) == 2
        for a, b in zip(*results):
            assert np.array_equal(bits(a), bits(b))


#: Python-level calls of one ``KernelSet.rhs`` of a 2-D batch of three on
#: two ranks.  At 72d6cef: 252 / 288 / 238 on host / device / fused; with
#: the one-call sweep 113 / 145 / 108 (EXPERIMENTS.md "One call per sweep");
#: bound for the call, 111 / 135 / 114; with scratch on the launch and one
#: owner loop, 111 / 123 / 108
GLUE_BUDGET = {"host": 125, "device": 137, "fused": 120}
#: the same of a stage bound once (what every batch of a stage program
#: runs): 23 / 47 / 26 (EXPERIMENTS.md "Bound batch launches"), then
#: 14 / 26 / 15 (EXPERIMENTS.md "One launch path"); budget = count + 5
BOUND_GLUE_BUDGET = {"host": 19, "device": 31, "fused": 20}


def glue_of_one_rhs(target, monkeypatch, bound):
    """The library directions one ``rhs`` served and the Python-level
    calls it made, per call or of a bound stage."""
    lib = next(c.cell_contents for c in native.kernels().bind_sweep.__closure__
               if isinstance(c.cell_contents, ctypes.CDLL))
    served, real = [], lib.weno_sweep
    monkeypatch.setattr(lib, "weno_sweep",
                        lambda *a: served.append(a[9].value) or real(*a))
    for half in ("flux_split", "weno_rows"):
        monkeypatch.setattr(lib, half, lambda *a: served.append(None))
    rng = np.random.default_rng(15)
    u = state(2, (3,), 4, rng)[0]
    metrics = StackedMetrics([curvilinear((14, 15), rng) for _ in range(3)])
    kernels = make_kernels("fortran", StateLayout(dim=2), EOS,
                           exec_backend=make_exec_backend(target))
    args = ((kernels.bind([(u, metrics, 4, (0, 1, 0))])[0],) if bound
            else (u, metrics, 4, (0, 1, 0)))
    kernels.rhs(*args)  # scratch, lru caches
    del served[:]
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename != __file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(count)
    try:
        kernels.rhs(*args)
    finally:
        sys.setprofile(None)
    return served, calls


@pytest.mark.parametrize("target", sorted(GLUE_BUDGET))
def test_glue_budget_of_one_rhs(sweep, target, monkeypatch):
    """Per-call overhead is what an AMR step of small boxes is made of,
    and 5% of it is below this host's timing noise — so it is counted:
    the interpreter's ``call`` events of one ``rhs`` (``sys.setprofile``;
    this file's own frames excluded) stay under the budget, and the
    library is entered exactly once per direction, through ``weno_sweep``
    only."""
    served, calls = glue_of_one_rhs(target, monkeypatch, bound=False)
    assert served == [1, 2]  # x then y, of the three axes the C code has
    assert len(calls) <= GLUE_BUDGET[target], Counter(calls).most_common(8)


@pytest.mark.parametrize("target", sorted(BOUND_GLUE_BUDGET))
def test_glue_budget_of_one_bound_rhs(sweep, target, monkeypatch):
    """The same for a stage bound once: no check, conversion or scratch
    request is left between the launches and the library."""
    served, calls = glue_of_one_rhs(target, monkeypatch, bound=True)
    assert served == [1, 2]
    assert len(calls) <= BOUND_GLUE_BUDGET[target], Counter(calls).most_common(8)


#: the same of a bound ``KernelSet.max_rate`` (ComputeDt of a batch of a
#: stage program): 8 / 12 / 12 on host / device / fused, where the
#: per-call rate and crops of each step were 55 / 59; budget = count + 5
BOUND_RATE_GLUE_BUDGET = {"host": 13, "device": 17, "fused": 17}


@pytest.mark.parametrize("target", sorted(BOUND_RATE_GLUE_BUDGET))
def test_glue_budget_of_one_bound_max_rate(rate, target, monkeypatch):
    """ComputeDt of a stage bound once enters the library once per batch,
    through ``max_rate``, and reads no pointer (``ndarray.ctypes``),
    checks no input and crops no metrics (``interior``) on the way."""
    lib = next(c.cell_contents for c in rate.__closure__
               if isinstance(c.cell_contents, ctypes.CDLL))
    served, real = [], lib.max_rate
    monkeypatch.setattr(lib, "max_rate",
                        lambda *a: served.append(a[5].value) or real(*a))
    rng = np.random.default_rng(15)
    u = state(2, (3,), 4, rng)[0]
    metrics = StackedMetrics([curvilinear((14, 15), rng) for _ in range(3)])
    kernels = make_kernels("fortran", StateLayout(dim=2), EOS,
                           exec_backend=make_exec_backend(target))
    stage, = kernels.bind([(u, metrics, 4, (0, 1, 0))])
    ref = kernels.max_rate(stage)
    del served[:]
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename != __file__:
            calls.append((Path(frame.f_code.co_filename).name,
                          frame.f_code.co_name))

    sys.setprofile(count)
    try:
        got = kernels.max_rate(stage)
    finally:
        sys.setprofile(None)
    assert served == [2] and np.array_equal(got, ref)
    names = {name for _, name in calls}
    assert not names & {"bind_rate", "interior", "local_max_rate"}, names
    assert not [f for f, _ in calls if f == "_internal.py"], calls  # .ctypes
    assert len(calls) <= BOUND_RATE_GLUE_BUDGET[target], Counter(
        calls).most_common(8)


def curvilinear(grown, rng):
    idx = np.stack(np.meshgrid(*[np.arange(n, dtype=float) for n in grown],
                               indexing="ij"))
    return CurvilinearMetrics.from_coordinates(
        0.1 * idx + 0.02 * np.sin(0.3 * idx[::-1] + rng.random()))


@pytest.mark.parametrize("case", [
    "mixture", "two species", "cartesian", "cell-major m", "float32", "1-D",
    "mixed precision"])
def test_outside_the_domain_is_the_numpy_result_without_a_warning(
        sweep, case, monkeypatch):
    """Each input the C function does not state as its own never reaches
    it, and the sweep returns what a process without a library returns;
    ``precision="mixed"`` stays inside (it rounds ``u``, in float64)."""
    rng = np.random.default_rng(6)
    dim, ng, calls = (1 if case == "1-D" else 2), 4, []
    grown = (16, 15)[:dim]
    layout = StateLayout(
        dim=dim, nspecies=2 if case in ("mixture", "two species") else 1)
    eos = EOS
    u = np.empty((layout.ncons,) + grown)
    u[:] = 0.2 * rng.random(u.shape)
    u[layout.rho_s] += 1.0
    u[layout.energy] += 3.0
    if case == "mixture":
        eos = MixtureEOS([Species("a", 0.028, 700.0), Species("b", 0.032, 650.0)])
        u[layout.energy] += 1e6
    metrics = (CartesianMetrics([0.1] * dim) if case in ("cartesian", "1-D")
               else curvilinear(grown, rng))
    if case == "cell-major m":  # the layout before the metrics were fixed
        metrics._m = np.moveaxis(np.ascontiguousarray(
            np.moveaxis(metrics._m, (0, 1), (-2, -1))), (-2, -1), (0, 1))
        assert not metrics.m(0)[0].flags.c_contiguous
    if case == "float32":
        u = u.astype(np.float32)
    flux = ConvectiveFlux()
    sweep = lambda: [flux.divergence(layout, eos, u, metrics, d, ng)
                     for d in range(dim)]
    if case == "mixed precision":
        kernels = make_kernels("cpp", layout, eos)
        kernels.precision = "mixed"
        sweep = lambda: [kernels.rhs(u, metrics, ng)]
    monkeypatch.setattr(native, "_kernel", spy(calls))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sweep()
        assert bool(calls) == (case == "mixed precision")
        weno_oracle.use_numpy_sweep(monkeypatch)
        for g, r in zip(got, sweep()):
            assert g.dtype == r.dtype and np.array_equal(g, r)


def test_metrics_of_a_run_are_in_the_domain():
    """A stack of several, a stack of one (of a member the first stack
    re-pointed at its own storage), a member of a stack and a patch of
    its own: every sweep of an AMR step is in the compiled domain."""
    rng = np.random.default_rng(7)
    members = [curvilinear((14, 15), rng) for _ in range(3)]
    u = state(2, (3,), 4, rng)[0]
    stack = StackedMetrics(members)
    for met, ub in [(stack, u), (StackedMetrics(members[:1]), u[:, :1]),
                    (stack.member(1), u[:, 1]), (members[2], u[:, 2])]:
        assert native.split_takes(np.ascontiguousarray(ub), met.m(1),
                                  met.jacobian())


@pytest.mark.parametrize("dim", [2, 3])
def test_divergence_is_bitwise_either_way(kernel, dim, monkeypatch):
    """The sweep's call site: every direction of a batch of two, for a
    3-stencil and a limiter-off scheme (the version x target table runs
    the default one)."""
    layout = StateLayout(dim=dim, nspecies=1)
    eos = IdealGasEOS()
    rng = np.random.default_rng(2)
    ng = 4
    grown = tuple(6 + d + 2 * ng for d in range(dim))
    u = np.empty((layout.ncons, 2) + grown)
    u[0] = 1.0 + 0.2 * rng.random((2,) + grown)
    u[1:1 + dim] = 0.1 * rng.normal(size=(dim, 2) + grown)
    u[layout.energy] = 2.5
    metrics = CartesianMetrics([0.1] * dim)
    for scheme in (SCHEMES[2], SCHEMES[3]):
        flux = ConvectiveFlux(scheme=scheme)
        compiled = [flux.divergence(layout, eos, u, metrics, d, ng)
                    for d in range(dim)]
        with monkeypatch.context() as m:
            weno_oracle.use_numpy_sweep(m)
            for d in range(dim):
                assert np.array_equal(
                    flux.divergence(layout, eos, u, metrics, d, ng),
                    compiled[d]), (scheme, d)


# -- ComputeDt -----------------------------------------------------------------

def both_rates(u, metrics, dim, rank=0, eos=EOS, ng=0):
    """``KernelSet.max_rate`` with the library and without it, each on a
    ``device`` backend of three ranks — bound for the call, or with
    ``ng`` ghost cells (``u`` and ``metrics`` grown) of a stage
    ``KernelSet.bind`` made: ``(rates, launch tables)`` of each and how
    many rates the library bound."""
    real, served, out = native.kernels(), [], []

    def bind(*args):
        call = real.bind_rate(*args)
        served.append(call is not None)
        return call

    layout = StateLayout(dim=dim, nspecies=len(u) - dim - 1)
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        for lib in (real._replace(bind_rate=bind), None):
            mp.setattr(native, "_kernel", lib)
            backend = make_exec_backend("device", [GpuDevice() for _ in "abc"])
            ks = make_kernels("cpp", layout, eos, exec_backend=backend)
            args = (ks.bind([(u, metrics, ng, rank)]) if ng
                    else (u, metrics, rank))
            got = ks.max_rate(*args)
            out.append((got, [d.table for d in backend.devices]))
    return out, sum(served)


def cropped(u, m, J, ng):
    """Valid-region views, what a bound stage's rate reads."""
    dim = len(m)
    v = (Ellipsis,) + (slice(ng, -ng),) * dim
    return u[v], as_metrics(m[(slice(None), slice(None)) + v], J[v])


def stored(m, J, strided):
    """``m`` and ``J`` as a level stores them: one ``(dim^2 + 1, ...)``
    array (``strided``: a view of a larger one, components far apart)."""
    dim = len(m)
    arr = np.empty((dim * dim + 1, 3 if strided else 1) + J.shape)[:, -1]
    arr[:dim * dim] = m.reshape((dim * dim,) + J.shape)
    arr[-1] = J
    return CurvilinearMetrics(arr)


@pytest.fixture
def rate():
    return compiled("bind_rate")


@pytest.mark.parametrize("dim", [2, 3])
def test_rate_is_bitwise_local_max_rate(rate, dim):
    """A single patch and batches of 1, 2 and 5, contiguous and
    member-strided metrics (each ``m[d]`` a view of a larger stack),
    bound for one call on whole arrays and bound as a stage on the grown
    ones a step binds: the rates bit for bit, one library call each and
    the same ``ComputeDt`` reductions on the same devices (one per owning
    rank of a batch); the stage's are ``local_max_rate`` of its valid
    region."""
    rng = np.random.default_rng(20 + dim)
    for batch, strided in itertools.product([(), (1,), (2,), (5,)],
                                            [False, True]):
        u, m, J = state(dim, batch, 4, rng, strided)
        rank = tuple(range(batch[0]))[::-1] if batch else 1
        for args, ng in (((u, as_metrics(m, J)), 0),
                         ((u, stored(m, J, strided)), 4)):
            ((ref, ref_tables), (got, tables)), served = both_rates(
                *args, dim, rank, ng=ng)
            assert served == 1 and tables == ref_tables
            assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
            assert np.array_equal(bits(np.asarray(got)),
                                  bits(np.asarray(ref))), (batch, strided)
        valid = local_max_rate(StateLayout(dim=dim), EOS,
                               *cropped(u, m, J, 4))
        assert np.array_equal(bits(np.asarray(got)), bits(np.asarray(valid)))


@pytest.mark.parametrize("dim", [2, 3])
def test_rate_poisons_what_numpy_poisons(rate, dim):
    """NaN, +-inf, a negative pressure and a vacuum in each component of
    one valid cell of member 1, and a NaN, a zero, a negative and an inf
    ``J`` there: each member's rate is NaN where NumPy's is and equal
    elsewhere (``ndarray.max`` propagates NaN, a C comparison does not)."""
    rng = np.random.default_rng(30 + dim)
    u0, m, J0 = state(dim, (3,), 4, rng)
    cell = (1,) + (5,) * dim
    cases = []
    for comp, bad in itertools.product(
            range(dim + 2), (np.nan, np.inf, -np.inf, -1e3, 0.0, 1e-310)):
        u = u0.copy()
        u[(comp,) + cell] = bad
        cases.append((u, J0))
    for bad in (np.nan, 0.0, -1.0, np.inf):
        J = J0.copy()
        J[cell] = bad
        cases.append((u0, J))
    poisoned = 0
    for u, J in cases:
        ((ref, _), (got, _)), served = both_rates(u, stored(m, J, False),
                                                  dim, ng=4)
        assert served == 1
        assert np.array_equal(np.isnan(ref), np.isnan(got))
        assert np.array_equal(bits(got[~np.isnan(got)]),
                              bits(ref[~np.isnan(ref)]))
        assert not np.isnan(ref[[0, 2]]).any()
        poisoned += bool(np.isnan(ref[1]))
    assert 0 < poisoned < len(cases)


@pytest.mark.parametrize("case", ["cartesian", "mixture", "float32",
                                  "unit-stride components"])
def test_a_rate_outside_the_domain_is_the_numpy_one(rate, case):
    """Cartesian (broadcast) metrics, a non-ideal EOS, float32 and a
    component axis that is the unit-stride one never reach the library:
    the rate is NumPy's, without a warning."""
    rng = np.random.default_rng(8)
    u, m, J = state(2, (2,), 4, rng)
    metrics, eos = as_metrics(m, J), EOS
    if case == "cartesian":
        metrics = CartesianMetrics([0.1, 0.2])
    elif case == "mixture":
        u = np.concatenate([0.5 * u[:1], 0.5 * u[:1], u[1:]])
        u[-1] += 1e6
        eos = MixtureEOS([Species("a", 0.028, 700.0),
                          Species("b", 0.032, 650.0)])
    elif case == "float32":
        u = u.astype(np.float32)
    else:
        m = np.moveaxis(np.ascontiguousarray(np.moveaxis(m, 1, -1)), -1, 1)
        metrics = as_metrics(m, J)
    dim = 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ((ref, ref_tables), (got, tables)), served = both_rates(
            u, metrics, dim, (0, 1), eos)
    assert served == 0 and tables == ref_tables
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("target", ["host", "fused"])
@pytest.mark.parametrize("ordering", ["fortran", "cpp"])
def test_a_bound_stage_computes_its_primitives_every_run(sweep, ordering,
                                                         target):
    """The stage's first direction computes the primitives, the others
    read them: a stage bound once and run twice, with ``u`` changed in
    place in between, is a fresh NumPy right-hand side both times — in 2-D
    and 3-D, for either direction order, per-direction launches and the
    fused one.  Primitives computed once per binding would leave the
    second run on the first state."""
    rng = np.random.default_rng(16)
    for dim in (2, 3):
        layout = StateLayout(dim=dim)
        ks = make_kernels(ordering, layout, EOS,
                          exec_backend=make_exec_backend(target))
        grown = tuple(10 + d for d in range(dim))
        metrics = StackedMetrics([curvilinear(grown, rng) for _ in range(2)])
        u = state(dim, (2,), 4, rng)[0][(Ellipsis,) + tuple(
            slice(0, g) for g in grown)].copy()
        stage, = ks.bind([(u, metrics, 4, (0, 1))])
        assert stage.calls is not None
        for run in range(2):
            got = ks.rhs(stage).copy()
            with pytest.MonkeyPatch.context() as mp:
                weno_oracle.use_numpy_sweep(mp)
                ref = make_kernels(ordering, layout, EOS).rhs(u, metrics, 4)
            assert np.array_equal(bits(got), bits(ref)), (dim, run)
            u[1:] *= 1.0 + 0.5 * rng.random(u[1:].shape)  # new momenta, E


# -- packaging and process boundaries -----------------------------------------

def test_source_ships_as_package_data(tmp_path):
    assert (resources.files("repro.numerics") / native.SOURCE).is_file()
    subprocess.run([sys.executable, "setup.py", "--quiet", "build_py",
                    "--build-lib", str(tmp_path)], cwd=ROOT, check=True,
                   capture_output=True)
    assert (tmp_path / "repro" / "numerics" / native.SOURCE).is_file()


def test_import_builds_and_loads_nothing():
    code = ("import sys, repro, repro.core.crocco, repro.cli\n"
            "from repro.numerics import native\n"
            "assert native._kernel is native._UNRESOLVED\n"
            "assert 'subprocess' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))


def _impl_of_this_process(_):
    return native.status()["impl"]


def test_handle_is_module_state_a_spawned_worker_loads_itself(kernel):
    """Nothing picklable carries the library: a worker that starts from a
    fresh import (``spawn``) resolves its own."""
    for obj in (WenoScheme(), ConvectiveFlux()):
        assert pickle.loads(pickle.dumps(obj)) == obj
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        assert pool.map(_impl_of_this_process, [0]) == ["compiled"]


# -- chaos: every way of not getting a library --------------------------------

RUN = r"""
import hashlib, sys, warnings
import numpy as np
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.numerics import native
cells = tuple(int(n) for n in sys.argv[1].split(","))
sim = Crocco(DoubleMachReflection(ncells=cells, curvilinear=True),
             CroccoConfig(version="2.0", max_level=3 - len(cells),
                          max_grid_size=16, blocking_factor=8))
sim.initialize()
sim.run(2)
h = hashlib.sha256()
for lev in range(sim.finest_level + 1):
    for _, fab in sim.state[lev]:
        h.update(np.ascontiguousarray(fab.whole()))
sim.close()
print(h.hexdigest(), native.status()["impl"], native.status()["cache"])
"""


def run(env, wait=True, cells="32,8"):
    """Two steps of the 2-D AMR deck (or, with three ``cells``, of a 3-D
    one) in a fresh process: ``(hash, impl, cache, stderr)``, or the
    ``Popen`` when not waiting."""
    keep = {k: os.environ[k] for k in ("PATH", "HOME", "CC") if k in os.environ}
    env = {**keep, "PYTHONPATH": str(ROOT / "src"), **env}
    proc = subprocess.Popen([sys.executable, "-c", RUN, cells],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    return finish(proc) if wait else proc


def finish(proc):
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    assert "Traceback" not in err
    return (*out.split(), err)


def warnings_in(err):
    return [ln for ln in err.splitlines() if "RuntimeWarning" in ln]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A cache directory holding a good build, and the trajectory hash
    of the compiled path."""
    if shutil.which(os.environ.get("CC") or "cc") is None:
        pytest.skip("needs a C compiler")
    cache = tmp_path_factory.mktemp("cache")
    sha, impl, how, err = run({"XDG_CACHE_HOME": str(cache)})
    if impl != "compiled":
        pytest.skip("no compiled kernel here: " + err.strip()[-200:])
    assert how == "miss" and not warnings_in(err)
    (lib,) = (cache / "repro").glob(native.PREFIX + "-*.so")
    # the library and the stamp of the self-check it passed, named by the
    # library and this NumPy
    (stamp,) = set((cache / "repro").iterdir()) - {lib}
    assert stamp.name.startswith(f"{lib.stem}-{np.__version__}-")
    assert stamp.suffix == ".checked" and stamp.stat().st_size == 0
    return cache, lib, sha


def assert_numpy_fallback(result, sha, why):
    got, impl, _, err = result
    assert (got, impl) == (sha, "numpy")
    (line,) = warnings_in(err)  # one warning, one line
    assert "compiled WENO kernel unavailable" in line and why in line


def test_warm_cache_is_a_hit(built):
    cache, _, sha = built
    got, impl, how, err = run({"XDG_CACHE_HOME": str(cache)})
    assert (got, impl, how) == (sha, "compiled", "hit")
    assert not warnings_in(err)


def test_nan_fault_fires_at_the_same_step_either_way(split, monkeypatch):
    """The watchdog's ``nan@S`` case: a NaN seeded after step 1 is caught
    — or, with the watchdog off, spreads through ``alpha`` — identically
    with the compiled sweep and the NumPy one."""
    def run(watchdog):
        sim = Crocco(DoubleMachReflection(ncells=(32, 8), curvilinear=True),
                     CroccoConfig(version="2.0", max_level=1, max_grid_size=16,
                                  blocking_factor=8, watchdog=watchdog,
                                  faults_plan="nan@1 seed=3"))
        sim.initialize()
        with np.errstate(all="ignore"):
            sim.run(3)
        out = ([fab.whole().copy() for lev in range(sim.finest_level + 1)
                for _, fab in sim.state[lev]],
               sim.resilience.counters.get("nan_detections", 0), sim.resilience.counters.get("rollbacks", 0))
        sim.close()
        return out

    for watchdog in (True, False):
        compiled = run(watchdog)
        with monkeypatch.context() as m:
            weno_oracle.use_numpy_sweep(m)
            numpy = run(watchdog)
        assert compiled[1:] == numpy[1:] == ((1, 1) if watchdog else (0, 0))
        assert any(np.isnan(f).any() for f in numpy[0]) != watchdog
        for c, n in zip(compiled[0], numpy[0]):
            assert np.array_equal(c, n, equal_nan=True)


def test_3d_deck_hashes_the_same_either_way(built, tmp_path):
    cache, _, _ = built
    numpy = run({"CC": "/bin/false", "XDG_CACHE_HOME": str(tmp_path)},
                cells="32,8,8")
    assert numpy[1] == "numpy"
    got, impl, _, _ = run({"XDG_CACHE_HOME": str(cache)}, cells="32,8,8")
    assert (got, impl) == (numpy[0], "compiled")


def test_no_compiler_on_path(built, tmp_path):
    _, _, sha = built
    assert_numpy_fallback(
        run({"PATH": str(tmp_path), "XDG_CACHE_HOME": str(tmp_path)}),
        sha, "no C compiler")


def test_compiler_that_fails(built, tmp_path):
    _, _, sha = built
    assert_numpy_fallback(
        run({"CC": "/bin/false", "XDG_CACHE_HOME": str(tmp_path)}),
        sha, "false exited 1")
    assert not list(tmp_path.rglob("*.so"))


@pytest.mark.parametrize("damage", ["truncated", "garbage", "stale",
                                    "no sweep"])
def test_bad_cache_entry(built, tmp_path, damage):
    """A file under the right name that is not the library: cut short
    (``dlopen`` of one is a SIGBUS) or not ELF at all — caught by the
    content hash in the name — or a library built from another source
    under a name that is consistent with its bytes: it loads, and fails
    the self-check, or (the two exports of before the one-call sweep)
    lacks a symbol (the stale one has every export, ``max_rate`` too)."""
    _, lib, sha = built
    bad = tmp_path / "repro" / lib.name
    bad.parent.mkdir()
    if damage == "truncated":
        bad.write_bytes(lib.read_bytes()[:4096])
    elif damage == "garbage":
        bad.write_bytes(b"not a shared object\n" * 100)
    else:
        src = tmp_path / "other.c"
        src.write_text("void weno_rows(void) {}\nvoid flux_split(void) {}\n"
                       + "void weno_sweep(void) {}\nvoid max_rate(void) {}\n"
                       * (damage == "stale"))
        subprocess.run([os.environ.get("CC") or "cc", "-shared", "-fPIC",
                        str(src), "-o", str(bad)], check=True)
        key = lib.name.rsplit("-", 1)[0]
        bad = bad.rename(bad.with_name(
            f"{key}-{native._digest(bad.read_bytes())}.so"))
    why = {"stale": "does not reproduce",
           "no sweep": "undefined symbol: weno_sweep"}.get(damage, "is damaged")
    assert_numpy_fallback(run({"XDG_CACHE_HOME": str(tmp_path)}), sha, why)
    assert bad.exists()  # reported, not repaired behind the user's back


def test_unwritable_cache_directory(built, tmp_path):
    """The build moves to the per-user temp directory."""
    _, _, sha = built
    blocker = tmp_path / "file"
    blocker.write_text("")  # a path under a regular file: mkdir fails
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = {"XDG_CACHE_HOME": str(blocker / "cache"), "TMPDIR": str(tmp)}
    got, impl, how, err = run(env)
    assert (got, impl, how) == (sha, "compiled", "miss")
    assert not warnings_in(err) and len(list(tmp.rglob("*.so"))) == 1


def test_two_processes_race_the_first_build(built, tmp_path):
    _, lib, sha = built
    procs = [run({"XDG_CACHE_HOME": str(tmp_path)}, wait=False)
             for _ in range(2)]
    for got, impl, _, err in map(finish, procs):
        assert (got, impl) == (sha, "compiled") and not warnings_in(err)
    # libraries and their stamps only (one, when the compiler is
    # deterministic): no temporary left behind
    key = lib.name.rsplit("-", 1)[0]
    assert all(p.name.startswith(key) and p.suffix in (".so", ".checked")
               for p in (tmp_path / "repro").iterdir())


# -- the self-check, once per library -----------------------------------------

@pytest.fixture
def loader(built, tmp_path, monkeypatch):
    """Resolves in this process, afresh per ``resolve()``, from a cache of
    its own that holds the built library: the library's path, the stamps
    beside it (``stamps()``) and one entry in ``checks`` per self-check
    run."""
    _, lib, _ = built
    (tmp_path / "repro").mkdir()
    shutil.copy(lib, tmp_path / "repro" / lib.name)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_status", {})
    checks, check = [], native._self_check
    monkeypatch.setattr(native, "_self_check",
                        lambda k, path: (checks.append(path), check(k, path)))

    def resolve():
        monkeypatch.setattr(native, "_kernel", native._UNRESOLVED)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert native.kernels() is not None
        return native.status()["check"]

    lib = tmp_path / "repro" / lib.name
    return SimpleNamespace(
        lib=lib, checks=checks, resolve=resolve,
        stamps=lambda: sorted(lib.parent.glob("*.checked")))


def test_a_passed_check_is_stamped_and_not_run_again(loader):
    assert not loader.stamps()
    assert loader.resolve() == "run" and len(loader.checks) == 1
    assert loader.resolve() == "stamped" and len(loader.checks) == 1
    (stamp,) = loader.stamps()
    assert sorted(loader.lib.parent.iterdir()) == sorted([stamp, loader.lib])


@pytest.mark.parametrize("edit", ["garbled", "numpy", "reference", "cfl"])
def test_a_stamp_that_does_not_match_is_checked_again(loader, edit,
                                                      tmp_path, monkeypatch):
    """A stamp under a garbled name, or a process under another NumPy, or
    one whose reference code (``native``, ``fluxes``, ``weno``, ``eos``,
    ``state``, ``cfl``: ``weno`` or ``cfl`` edited) differs from what the
    stamp was written under: the check runs, passes, and stamps what it
    ran under."""
    loader.resolve()
    (stamp,) = loader.stamps()
    if edit == "garbled":
        stamp.rename(stamp.with_name(stamp.name[:-12] + stamp.name[-8:]))
    elif edit == "numpy":
        monkeypatch.setattr(np, "__version__", "1.0.0")
    else:
        code = tmp_path / "reference"
        code.mkdir()
        for f in ("native.py", "fluxes.py", "weno.py", "eos.py",
                  "state.py", "cfl.py", native.SOURCE):  # the library's key
            shutil.copy(Path(native.__file__).with_name(f), code)
        with open(code / ("cfl.py" if edit == "cfl" else "weno.py"), "a") as f:
            f.write("# another revision\n")
        monkeypatch.setattr(native, "__file__", str(code / "native.py"))
    assert loader.resolve() == "run" and len(loader.checks) == 2
    assert loader.resolve() == "stamped" and len(loader.checks) == 2
    # beside the stamp it did not match (the other NumPy's, the other
    # code's, or the garbled one)
    assert len(loader.stamps()) == 2


def test_an_unwritable_stamp_is_checked_every_time(loader):
    """A directory where the stamp goes (unwritable even to root): every
    resolve checks and none fails."""
    loader.resolve()
    (stamp,) = loader.stamps()
    stamp.unlink()
    stamp.mkdir()
    assert [loader.resolve() for _ in range(2)] == ["run", "run"]
    assert len(loader.checks) == 3
    assert sorted(loader.lib.parent.iterdir()) == sorted([stamp, loader.lib])


@pytest.mark.parametrize("damage", ["truncated", "stale"])
def test_a_stamp_does_not_vouch_for_another_library(built, tmp_path, damage):
    """The good library's stamp beside a damaged one under its name, or
    beside a library built from another source: the damage is caught as
    without a stamp, with its one warning."""
    cache, lib, sha = built
    bad = tmp_path / "repro" / lib.name
    bad.parent.mkdir()
    if damage == "truncated":
        bad.write_bytes(lib.read_bytes()[:4096])
    else:
        src = tmp_path / "other.c"
        src.write_text("void weno_rows(void) {}\nvoid flux_split(void) {}\n"
                       "void weno_sweep(void) {}\nvoid max_rate(void) {}\n")
        subprocess.run([os.environ.get("CC") or "cc", "-shared", "-fPIC",
                        str(src), "-o", str(bad)], check=True)
        bad.rename(bad.with_name(f"{lib.name.rsplit('-', 1)[0]}-"
                                 f"{native._digest(bad.read_bytes())}.so"))
    for stamp in (cache / "repro").glob("*.checked"):
        shutil.copy(stamp, bad.parent)
    why = "is damaged" if damage == "truncated" else "does not reproduce"
    assert_numpy_fallback(run({"XDG_CACHE_HOME": str(tmp_path)}), sha, why)
