"""Tests for the WENO-SYMBO reconstruction machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics.weno import (
    CANDIDATE_OFFSETS,
    SYMBO_C0,
    SYMOO_C0,
    WENO_EPS,
    WenoScheme,
    derive_symbo_c0,
    interface_coefficients,
    modified_wavenumber,
    reconstruct_minus,
    smoothness_matrix,
    symmetric_weights,
)
from tests.numerics import weno_oracle


def test_interface_coefficients_match_classic_tables():
    """The derived reconstruction coefficients equal the standard WENO5 ones."""
    assert np.allclose(interface_coefficients((-2, -1, 0)), [2 / 6, -7 / 6, 11 / 6])
    assert np.allclose(interface_coefficients((-1, 0, 1)), [-1 / 6, 5 / 6, 2 / 6])
    assert np.allclose(interface_coefficients((0, 1, 2)), [2 / 6, 5 / 6, -1 / 6])
    assert np.allclose(interface_coefficients((1, 2, 3)), [11 / 6, -7 / 6, 2 / 6])


def test_smoothness_matrix_reproduces_jiang_shu():
    """beta for classic stencils must equal the textbook JS formulas."""
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = rng.normal(size=3)
        # r=0: cells (i-2, i-1, i)
        m = smoothness_matrix((-2, -1, 0))
        beta = v @ m @ v
        expected = (13 / 12) * (v[0] - 2 * v[1] + v[2]) ** 2 + 0.25 * (
            v[0] - 4 * v[1] + 3 * v[2]
        ) ** 2
        assert np.isclose(beta, expected)
        # r=1: cells (i-1, i, i+1)
        m = smoothness_matrix((-1, 0, 1))
        beta = v @ m @ v
        expected = (13 / 12) * (v[0] - 2 * v[1] + v[2]) ** 2 + 0.25 * (v[0] - v[2]) ** 2
        assert np.isclose(beta, expected)
        # r=2: cells (i, i+1, i+2)
        m = smoothness_matrix((0, 1, 2))
        beta = v @ m @ v
        expected = (13 / 12) * (v[0] - 2 * v[1] + v[2]) ** 2 + 0.25 * (
            3 * v[0] - 4 * v[1] + v[2]
        ) ** 2
        assert np.isclose(beta, expected)


def test_downwind_smoothness_is_nonnegative_quadratic():
    m = smoothness_matrix((1, 2, 3))
    eig = np.linalg.eigvalsh(0.5 * (m + m.T))
    assert eig.min() >= -1e-12
    # constant fields are perfectly smooth
    v = np.ones(3)
    assert abs(v @ m @ v) < 1e-12


def test_symoo_weights_give_sixth_order_combination():
    """(1/20, 9/20, 9/20, 1/20) reproduce the central 6th-order interface value."""
    w = symmetric_weights(SYMOO_C0)
    comb = np.zeros(6)
    for wr, offs in zip(w, CANDIDATE_OFFSETS):
        for c, o in zip(interface_coefficients(offs), offs):
            comb[o + 2] += wr * c
    expected = np.array([1, -8, 37, 37, -8, 1]) / 60.0
    assert np.allclose(comb, expected)


def test_symmetric_weights_validation():
    with pytest.raises(ValueError):
        symmetric_weights(0.0)
    with pytest.raises(ValueError):
        symmetric_weights(0.5)


def test_modified_wavenumber_consistency_at_low_k():
    """k' ~ k for small k (the scheme is a consistent derivative)."""
    k = np.array([0.01, 0.05, 0.1])
    for c0 in (SYMOO_C0, SYMBO_C0, 0.1):
        kp = modified_wavenumber(c0, k)
        assert np.allclose(kp, k, rtol=1e-2)


def test_symbo_beats_symoo_at_high_wavenumbers():
    """Bandwidth optimization reduces the integrated dispersion error."""
    k = np.linspace(0.05, 2.0, 200)
    err_oo = np.trapezoid((modified_wavenumber(SYMOO_C0, k) - k) ** 2, k)
    err_bo = np.trapezoid((modified_wavenumber(SYMBO_C0, k) - k) ** 2, k)
    assert err_bo < err_oo


def test_derive_symbo_c0_stable_and_distinct():
    c0 = derive_symbo_c0()
    assert 0.0 < c0 < 0.5
    assert abs(c0 - SYMBO_C0) < 1e-12  # module constant derives from this
    assert abs(c0 - SYMOO_C0) > 1e-3  # genuinely different from max-order


def test_reconstruct_exact_on_smooth_quadratic():
    """All candidates are exact for quadratic cell averages -> exact output."""
    x = np.arange(30, dtype=float)
    # cell average of x^2 over [i-1/2, i+1/2] is i^2 + 1/12
    vbar = x**2 + 1.0 / 12.0
    for variant in ("symbo", "symoo", "js5"):
        rec = WenoScheme(variant=variant).reconstruct(vbar, axis=0)
        i = np.arange(2, 27)
        exact = (i + 0.5) ** 2
        assert np.allclose(rec, exact, rtol=1e-12), variant


def test_reconstruct_convergence_order_smooth():
    """symoo ~6th order, symbo >=4th, js5 ~5th on smooth data."""
    orders = {}
    for variant in ("symoo", "symbo", "js5"):
        errs = []
        for n in (40, 80):
            h = 2 * np.pi / n
            i = np.arange(-3, n + 3)
            # exact cell averages of sin(x)
            vbar = (np.cos(i * h) - np.cos((i + 1) * h)) / h
            rec = WenoScheme(variant=variant).reconstruct(vbar, axis=0)
            iface = np.arange(-1, n + 1)[: len(rec)] * h
            # reconstruct() starts at padded cell 2 -> interface (i=-1)+1/2 = 0
            iface = (np.arange(len(rec)) - 1 + 1) * h
            errs.append(np.abs(rec - np.sin(iface)).max())
        orders[variant] = np.log2(errs[0] / errs[1])
    assert orders["symoo"] > 4.5
    assert orders["symbo"] > 3.0
    assert orders["js5"] > 4.0


def test_reconstruct_eno_property_at_shock():
    """No large overshoot when reconstructing across a discontinuity."""
    v = np.zeros(40)
    v[20:] = 1.0
    for variant in ("symbo", "js5"):
        rec = WenoScheme(variant=variant).reconstruct(v, axis=0)
        assert rec.min() > -0.02
        assert rec.max() < 1.02


def test_downwind_cap_keeps_scheme_non_oscillatory():
    """With the downwind-weight cap, overshoot at a step stays negligible
    whether or not the relative-smoothness disable is active."""
    v = np.zeros(40)
    v[20:] = 1.0
    for limit in (5.0, 0.0):
        rec = WenoScheme(variant="symbo", downwind_limit=limit).reconstruct(v, axis=0)
        over = max(rec.max() - 1.0, -rec.min())
        assert over < 1e-4


def test_step_advection_stability():
    """400 RK3 steps of a step profile remain bounded (the central symmetric
    scheme without the downwind cap blows up on this problem)."""
    from repro.numerics.rk3 import advance

    scheme = WenoScheme(variant="symbo")
    n = 100
    u = np.where(np.arange(n) < n // 2, 1.0, 0.0).astype(float)

    def rhs(u):
        up = np.concatenate([u[-3:], u, u[:3]])  # periodic, a = 1, f+ = u
        f = scheme.reconstruct(up, 0)
        return -(f[1:] - f[:-1])

    for _ in range(400):
        u = advance(u, rhs, 0.4)
    # WENO is not TVD: a small persistent overshoot is expected, but the
    # uncapped central scheme reaches |u| ~ 70 on this problem
    assert u.min() > -0.05
    assert u.max() < 1.05
    assert np.isclose(u.mean(), 0.5)  # conservation


def test_reconstruct_minus_mirror_symmetry():
    """Minus reconstruction of v(x) equals plus reconstruction of v(-x)."""
    rng = np.random.default_rng(1)
    v = rng.normal(size=30)
    scheme = WenoScheme()
    plus_of_flipped = scheme.reconstruct(v[::-1].copy(), axis=0)[::-1]
    minus = reconstruct_minus(scheme, v, axis=0)
    assert np.allclose(minus, plus_of_flipped)


def test_reconstruct_minus_alignment():
    """Plus and minus reconstructions refer to the same interfaces."""
    x = np.arange(30, dtype=float)
    vbar = x**2 + 1.0 / 12.0  # smooth: both sides converge to the same value
    scheme = WenoScheme()
    p = scheme.reconstruct(vbar, axis=0)
    m = reconstruct_minus(scheme, vbar, axis=0)
    assert p.shape == m.shape
    assert np.allclose(p, m, rtol=1e-10)


def test_reconstruct_multidimensional_axis():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(3, 20, 12))
    scheme = WenoScheme()
    rec1 = scheme.reconstruct(v, axis=1)
    assert rec1.shape == (3, 15, 12)
    rec2 = scheme.reconstruct(v, axis=2)
    assert rec2.shape == (3, 20, 7)
    # axis handling consistent with manual loop
    for c in range(3):
        for k in range(12):
            assert np.allclose(rec1[c, :, k], scheme.reconstruct(v[c, :, k], axis=0))


def test_too_few_cells():
    with pytest.raises(ValueError):
        WenoScheme().reconstruct(np.zeros(5), axis=0)


@settings(max_examples=20)
@given(st.floats(-5, 5), st.floats(-3, 3))
def test_constant_and_linear_exactness(a, b):
    i = np.arange(20, dtype=float)
    vbar = a + b * i
    rec = WenoScheme().reconstruct(vbar, axis=0)
    exact = a + b * (np.arange(2, 17) + 0.5)
    assert np.allclose(rec, exact, atol=1e-9 * (1 + abs(a) + abs(b)))


# -- floating-point robustness of the combination ----------------------------

def _stencils(kind):
    rng = np.random.default_rng(13)
    if kind == "smooth":
        return [1.0 + 0.1 * rng.normal(size=(4, 50)) for _ in range(6)]
    return [np.where(rng.random((4, 50)) > 0.5, 1.0, 10.0) for _ in range(6)]


def _implementations():
    """``{name: combine(scheme, cells)}``: the NumPy combination and, where
    this environment built one, the compiled row kernel."""
    impls = {"numpy": lambda scheme, cells: scheme.combine(cells)}
    if weno_oracle.compiled_combine(WenoScheme(), [np.zeros(1)] * 6) is not None:
        impls["compiled"] = weno_oracle.compiled_combine
    return impls


@pytest.mark.parametrize("variant", ["symbo", "symoo", "js5"])
def test_combine_is_finite_and_homogeneous_from_1e_minus_100_to_1e_plus_100(
        variant):
    """No pass of the combination leaves the representable range
    (``WENO_EPS_FLOOR``): zero, tiny and huge stencils come back finite
    with no divide, invalid or overflow, and ``combine(s v) = s combine(v)``
    — the nonlinear weights are scale-free — to rounding, exactly when
    ``s`` is a power of two.  Both implementations, which agree bitwise
    (the C kernel raises no NumPy floating-point error either way)."""
    scheme = WenoScheme(variant=variant)
    for impl, combine in _implementations().items():
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            zero = combine(scheme, [np.zeros((4, 50))] * 6)
            assert np.array_equal(zero, np.zeros((4, 50)))
            for kind in ("smooth", "jump"):
                cells = _stencils(kind)
                ref = combine(scheme, cells)
                assert np.array_equal(ref, scheme.combine(cells)), impl
                for s in (1e-100, 1e100, 2.0 ** -332, 2.0 ** 332):
                    got = combine(scheme, [s * c for c in cells])
                    assert np.isfinite(got).all()
                    assert np.allclose(got, s * ref, rtol=1e-12, atol=0.0), (
                        impl, kind, s)
                    if np.log2(s).is_integer():
                        assert np.array_equal(got, s * ref), (impl, kind, s)
                # a window that is zero in places (the spanwise momentum of
                # a 2-D flow in 3-D) next to one that is not
                cells[2] = cells[2] * (np.arange(50) % 2)
                assert np.isfinite(combine(scheme, cells)).all()
                # the ends of the range documented at WENO_EPS_FLOOR
                for s in (1e-145, 1e150):
                    got = combine(scheme, [s * c for c in _stencils(kind)])
                    assert np.allclose(got, s * ref, rtol=1e-9, atol=0.0), (
                        impl, kind, s)


@pytest.mark.parametrize("variant", ["symbo", "symoo", "js5"])
def test_combine_minus_is_combine_of_the_reversed_window(variant):
    scheme = WenoScheme(variant=variant)
    for kind in ("smooth", "jump"):
        cells = _stencils(kind)
        assert np.array_equal(scheme.combine_minus(cells),
                              scheme.combine(cells[::-1]))
        out = np.ones((4, 50))
        scheme.combine_minus(cells, out=out, add=True)
        assert np.array_equal(out, 1.0 + scheme.combine(cells[::-1]))


class _Keep:
    """A ``scratch`` that keeps what it hands out, by role."""

    def __init__(self):
        self.roles = {}

    def get(self, role, shape, dtype=np.float64):
        self.roles[role] = np.empty(shape, dtype)
        return self.roles[role]


@pytest.mark.parametrize("nst", [3, 4])
def test_product_form_factors_stay_under_their_bound(nst):
    """Each factor ``g_s = (1 + beta_s / eps_eff)**2`` of the product-form
    weights is at most ``(1 + 6 / WENO_EPS * lambda_s)**2``, ``lambda_s``
    the largest eigenvalue of stencil ``s``'s quadratic form, on the
    windows that reach it and on random ones; the largest product of
    three such bounds is < 1.2e24, the figure the comments quote."""
    scheme = WenoScheme() if nst == 4 else WenoScheme(variant="js5")
    bounds = []
    for offs in CANDIDATE_OFFSETS[:nst]:
        lam = np.linalg.eigvalsh(smoothness_matrix(offs)).max()
        bounds.append((1.0 + 6.0 / WENO_EPS * lam) ** 2)
    top = sorted(bounds)[-3:]
    assert top[0] * top[1] * top[2] < 1.2e24
    rng = np.random.default_rng(0)
    windows = _extreme_windows() + [list(rng.standard_normal((6, 1000)))]
    for cells in windows:
        keep = _Keep()
        scheme.combine(cells, scratch=keep)
        g = keep.roles["cmb_betas"]  # (1 + beta_s / eps_eff)**2 by now
        for s in range(nst):
            assert (g[s] <= bounds[s] * (1.0 + 1e-12)).all(), s


def _extreme_windows(n=50):
    """Windows that drive ``beta / eps_eff`` to its bound, each ``(n,)``
    wide: a single jump at every position of the window (both signs) and,
    per stencil, the eigenvector of its quadratic form over the window
    with the largest eigenvalue — the largest ratio that stencil can
    reach, and so the largest factor ``(1 + beta / eps_eff)**2`` of the
    product-form weights."""
    out = []
    for j in range(1, 6):
        step = np.where(np.arange(6) >= j, 1.0, 0.0)
        out += [step, -step, 1.0 - step]
    for offs in CANDIDATE_OFFSETS:
        form = np.zeros((6, 6))
        cells = [o + 2 for o in offs]
        form[np.ix_(cells, cells)] = smoothness_matrix(offs)
        out.append(np.linalg.eigh(form)[1][:, -1])
    return [[np.full(n, w[k]) for k in range(6)] for w in out]


@pytest.mark.parametrize("scheme", [
    WenoScheme(), WenoScheme(variant="js5"), WenoScheme(downwind_limit=0.0)],
    ids=["symbo-limit5", "js5", "symbo-limit0"])
def test_product_form_weights_stay_finite_at_the_ends_of_the_range(scheme):
    """The weights are ``w_r * prod_{s != r} (1 + beta_s / eps_eff)**2``:
    single jumps and each stencil's extremal window, where every factor
    is at its bound, and identically-zero windows, at the ends of the
    range ``WENO_EPS_FLOOR`` documents — no overflow, divide or invalid
    anywhere, the compiled kernel bitwise the NumPy combination, and a
    power-of-two scale exact where the floor is below rounding."""
    impls = _implementations()
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        for combine in impls.values():
            zero = combine(scheme, [np.zeros(50)] * 6)
            assert np.array_equal(zero, np.zeros(50))
        for cells in _extreme_windows():
            ref = scheme.combine(cells)
            assert np.isfinite(ref).all()
            for s in (1e-145, -1e-145, 1e150, -1e150, 2.0 ** -400, 2.0 ** 498):
                scaled = [s * c for c in cells]
                got = {name: combine(scheme, scaled)
                       for name, combine in impls.items()}
                assert np.isfinite(got["numpy"]).all(), s
                for name, val in got.items():
                    assert np.array_equal(val, got["numpy"]), (name, s)
                if np.log2(abs(s)).is_integer():
                    assert np.array_equal(got["numpy"], s * ref), s
                else:
                    # at 1e-145 the floor is ~6e-8 of a unit window's eps_eff
                    assert np.allclose(got["numpy"], s * ref, rtol=1e-6,
                                       atol=0.0), s
