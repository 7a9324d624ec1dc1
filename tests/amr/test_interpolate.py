"""Tests for the coarse-to-fine interpolators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.fab import FArrayBox
from repro.amr.interp_curvilinear import CurvilinearInterp
from repro.amr.interp_weno import WenoInterp, weno_interp_1d
from repro.amr.interpolate import (
    ConservativeLinearInterp,
    TrilinearInterp,
    _fine_fractions,
)


def linear_field(box, ngrow, coeffs, const=1.0, ncomp=1):
    """A fab whose cell values are an affine function of cell centers."""
    fab = FArrayBox(box, ncomp, ngrow)
    gb = fab.grown_box()
    grids = np.meshgrid(
        *[np.arange(gb.lo[d], gb.hi[d] + 1) + 0.5 for d in range(box.dim)],
        indexing="ij",
    )
    val = const + sum(c * g for c, g in zip(coeffs, grids))
    for c in range(ncomp):
        fab.data[c] = (c + 1) * val
    return fab


def test_fine_fractions_ratio2():
    base, frac = _fine_fractions(np.arange(0, 4), 2)
    # fine centers at coarse coords -0.25, 0.25, 0.75, 1.25
    assert base.tolist() == [-1, 0, 0, 1]
    assert np.allclose(frac, [0.75, 0.25, 0.75, 0.25])


def test_trilinear_exact_on_linear_fields_2d():
    cbox = Box((0, 0), (7, 7))
    cfab = linear_field(cbox, 1, (2.0, -3.0))
    interp = TrilinearInterp()
    fine_region = Box((2, 2), (9, 9))
    out = interp.interp(cfab, fine_region, 2)
    # exact linear reproduction: fine value = f(fine center in coarse coords)
    ii = (np.arange(2, 10) + 0.5) / 2
    jj = (np.arange(2, 10) + 0.5) / 2
    expected = 1.0 + 2.0 * ii[:, None] - 3.0 * jj[None, :]
    assert np.allclose(out[0], expected)


def test_trilinear_exact_on_linear_fields_3d():
    cbox = Box((0, 0, 0), (7, 7, 7))
    cfab = linear_field(cbox, 1, (1.0, 2.0, 3.0))
    out = TrilinearInterp().interp(cfab, Box((4, 4, 4), (7, 7, 7)), 2)
    ctr = (np.arange(4, 8) + 0.5) / 2
    expected = (
        1.0 + ctr[:, None, None] + 2.0 * ctr[None, :, None] + 3.0 * ctr[None, None, :]
    )
    assert np.allclose(out[0], expected)


def test_trilinear_weights_are_quarter_multiples():
    """On a uniform ratio-2 grid, coefficients depend only on the ratio.

    Interpolating a delta function exposes the weights directly.
    """
    cbox = Box((0, 0), (5, 5))
    cfab = FArrayBox(cbox, 1, 1)
    cfab.view(Box((2, 2), (2, 2)))[...] = 1.0
    out = TrilinearInterp().interp(cfab, Box((4, 4), (5, 5)), 2)
    # fine cells nearest the delta get weight 0.75*0.75 etc.
    vals = np.unique(np.round(out[0] * 16))
    assert set(vals.tolist()) <= {1.0, 3.0, 9.0}


def test_trilinear_requires_coverage():
    cfab = FArrayBox(Box((0, 0), (3, 3)), 1, 0)
    with pytest.raises(ValueError):
        TrilinearInterp().interp(cfab, Box((0, 0), (7, 7)), 2)


def test_conservative_preserves_coarse_means():
    cbox = Box((0, 0), (7, 7))
    cfab = FArrayBox(cbox, 1, 1)
    rng = np.random.default_rng(42)
    cfab.data[0] = rng.random(cfab.data[0].shape)
    interp = ConservativeLinearInterp()
    fine_region = Box((4, 4), (11, 11))  # covers coarse (2,2)-(5,5)
    out = interp.interp(cfab, fine_region, 2)
    fine = out[0].reshape(4, 2, 4, 2).mean(axis=(1, 3))
    coarse = cfab.view(Box((2, 2), (5, 5)))[0]
    assert np.allclose(fine, coarse)


def test_conservative_exact_on_linear():
    cbox = Box((0, 0), (7, 7))
    cfab = linear_field(cbox, 1, (1.5, 0.5))
    out = ConservativeLinearInterp().interp(cfab, Box((4, 4), (9, 9)), 2)
    ii = (np.arange(4, 10) + 0.5) / 2
    expected = 1.0 + 1.5 * ii[:, None] + 0.5 * ii[None, :]
    assert np.allclose(out[0], expected)


def test_conservative_limiter_no_overshoot():
    """Interpolated values stay within the local coarse data range."""
    cbox = Box((0, 0), (7, 7))
    cfab = FArrayBox(cbox, 1, 1)
    # step function: sharp jump
    cfab.data[0, :, :] = 0.0
    cfab.data[0, 5:, :] = 10.0
    out = ConservativeLinearInterp().interp(cfab, Box((4, 4), (9, 9)), 2)
    assert out.min() >= 0.0 - 1e-12
    assert out.max() <= 10.0 + 1e-12


def test_curvilinear_reduces_to_trilinear_on_uniform_grid():
    dim = 2
    cbox = Box((0, 0), (7, 7))
    cfab = linear_field(cbox, 1, (2.0, 1.0), ncomp=2)
    fine_region = Box((4, 4), (9, 9))
    # uniform physical coordinates: x = i * dxc (coarse), x = i * dxf (fine)
    ccoords = FArrayBox(cbox, dim, 2)
    gb = ccoords.grown_box()
    ii = np.arange(gb.lo[0], gb.hi[0] + 1) + 0.5
    jj = np.arange(gb.lo[1], gb.hi[1] + 1) + 0.5
    ccoords.data[0] = ii[:, None] * np.ones_like(jj)[None, :]
    ccoords.data[1] = np.ones_like(ii)[:, None] * jj[None, :]
    fcoords = FArrayBox(fine_region, dim, 0)
    fi = (np.arange(4, 10) + 0.5) / 2
    fcoords.data[0] = fi[:, None] * np.ones(6)[None, :]
    fcoords.data[1] = np.ones(6)[:, None] * fi[None, :]

    tri = TrilinearInterp().interp(cfab, fine_region, 2)
    cur = CurvilinearInterp().interp(cfab, fine_region, 2, ccoords, fcoords)
    assert np.allclose(tri, cur)


def test_curvilinear_exact_linear_in_physical_space_stretched():
    """On a stretched grid, curvilinear interp is exact for f(x) linear in x."""
    dim = 1
    cbox = Box((0,), (15,))
    # stretched coordinates x = s(i) = (i/8)^2 * 8
    def xc(i):
        return ((i + 0.5) / 8.0) ** 2 * 8.0

    cfab = FArrayBox(cbox, 1, 1)
    gb = cfab.grown_box()
    icells = np.arange(gb.lo[0], gb.hi[0] + 1)
    cfab.data[0] = 3.0 * xc(icells) + 1.0

    ccoords = FArrayBox(cbox, dim, 2)
    ccoords.data[0] = xc(np.arange(ccoords.grown_box().lo[0],
                                   ccoords.grown_box().hi[0] + 1))
    fine_region = Box((8,), (23,))
    fcoords = FArrayBox(fine_region, dim, 0)

    def xf(i):
        return (((i + 0.5) / 2.0) / 8.0) ** 2 * 8.0

    fcoords.data[0] = xf(np.arange(8, 24))
    out = CurvilinearInterp().interp(cfab, fine_region, 2, ccoords, fcoords)
    expected = 3.0 * xf(np.arange(8, 24)) + 1.0
    assert np.allclose(out[0], expected)
    # and the index-space trilinear interpolation is NOT exact here
    tri = TrilinearInterp().interp(cfab, fine_region, 2)
    assert not np.allclose(tri[0], expected)


def test_curvilinear_requires_coords():
    cfab = FArrayBox(Box((0, 0), (7, 7)), 1, 1)
    with pytest.raises(ValueError):
        CurvilinearInterp().interp(cfab, Box((2, 2), (5, 5)), 2)


def test_weno_interp_1d_exact_on_quadratic():
    """Quadratics lie in every candidate stencil's space -> exact for any weights."""
    x = np.arange(20, dtype=float)
    v = 2.0 + x + 0.5 * x**2
    base = np.arange(5, 12)
    frac = np.full(7, 0.25)
    out = weno_interp_1d(v, base, frac, axis=0)
    xt = base + frac
    expected = 2.0 + xt + 0.5 * xt**2
    assert np.allclose(out, expected, rtol=1e-12)


def test_weno_interp_1d_high_order_convergence():
    """On a smooth sine, halving h reduces error by ~2^4 (4th order)."""
    errs = []
    for n in (32, 64):
        x = (np.arange(n) + 0.5) / n
        v = np.sin(2 * np.pi * x)
        base = np.arange(4, n - 4)
        frac = np.full(len(base), 0.5)
        out = weno_interp_1d(v, base, frac, axis=0)
        xt = (base + frac + 0.5) / n
        errs.append(np.abs(out - np.sin(2 * np.pi * xt)).max())
    order = np.log2(errs[0] / errs[1])
    assert order > 3.0


def test_weno_interp_1d_non_oscillatory_at_step():
    v = np.zeros(20)
    v[10:] = 1.0
    base = np.arange(5, 14)
    frac = np.full(9, 0.5)
    out = weno_interp_1d(v, base, frac, axis=0)
    assert out.min() >= -1e-8
    assert out.max() <= 1.0 + 1e-8


def test_weno_interp_2d_smooth():
    cbox = Box((0, 0), (15, 15))
    cfab = linear_field(cbox, 2, (1.0, 2.0))
    out = WenoInterp().interp(cfab, Box((8, 8), (15, 15)), 2)
    ii = (np.arange(8, 16) + 0.5) / 2
    expected = 1.0 + ii[:, None] + 2.0 * ii[None, :]
    assert np.allclose(out[0], expected, atol=1e-8)


def test_weno_interp_insufficient_ghosts():
    v = np.zeros(6)
    with pytest.raises(ValueError):
        weno_interp_1d(v, np.array([0]), np.array([0.5]), axis=0)


@settings(max_examples=20)
@given(st.floats(0.01, 0.99))
def test_weno_linear_weights_reproduce_cubic(x):
    """gamma(x) q_left + (1-gamma) q_right equals the 4-point cubic."""
    from repro.amr.interp_weno import _linear_weight, _quadratic_eval

    rng = np.random.default_rng(0)
    v = rng.random(4)  # values at -1, 0, 1, 2
    ql = _quadratic_eval(v[0], v[1], v[2], x)
    qr = _quadratic_eval(v[1], v[2], v[3], x - 1.0)
    g = _linear_weight(x)
    combo = g * ql + (1 - g) * qr
    # Lagrange cubic through (-1,0,1,2)
    xs = np.array([-1.0, 0.0, 1.0, 2.0])
    cubic = 0.0
    for k in range(4):
        lk = 1.0
        for m in range(4):
            if m != k:
                lk *= (x - xs[m]) / (xs[k] - xs[m])
        cubic += v[k] * lk
    assert np.isclose(combo, cubic, atol=1e-12)
