"""Tests for central stencils and curvilinear metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics.metrics import (
    CartesianMetrics,
    CurvilinearMetrics,
    StackedMetrics,
    derivative_same_shape,
    dx_dxi,
    grid_quality,
)
from repro.numerics.stencils import central_derivative


def test_central_derivative_polynomial_exactness():
    x = np.linspace(0, 1, 33)
    h = x[1] - x[0]
    # 4th-order stencil is exact on quartics for d/dx
    v = x**4 - 2 * x**2 + 3
    d = central_derivative(v, axis=0, spacing=h, order=4)
    expected = 4 * x[2:-2] ** 3 - 4 * x[2:-2]
    assert np.allclose(d, expected, atol=1e-10)


def test_central_derivative_order_of_accuracy():
    errs = []
    for n in (32, 64):
        x = (np.arange(n) + 0.5) / n
        v = np.sin(2 * np.pi * x)
        d = central_derivative(v, axis=0, spacing=1.0 / n, order=4)
        exact = 2 * np.pi * np.cos(2 * np.pi * x[2:-2])
        errs.append(np.abs(d - exact).max())
    assert np.log2(errs[0] / errs[1]) > 3.7


def test_central_second_derivative():
    x = np.linspace(0, 1, 41)
    h = x[1] - x[0]
    v = x**3
    d2 = central_derivative(v, axis=0, spacing=h, order=4, derivative=2)
    assert np.allclose(d2, 6 * x[2:-2], atol=1e-9)


def test_central_derivative_axis_handling():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(5, 20))
    d = central_derivative(v, axis=1, order=4)
    assert d.shape == (5, 16)


def test_central_derivative_errors():
    with pytest.raises(ValueError):
        central_derivative(np.zeros(3), axis=0, order=4)
    with pytest.raises(ValueError):
        central_derivative(np.zeros(10), axis=0, order=8)


def test_derivative_same_shape_matches_interior():
    x = np.linspace(0, 1, 30)
    v = np.sin(3 * x)
    d_full = derivative_same_shape(v, axis=0, order=4)
    d_int = central_derivative(v, axis=0, order=4)
    assert d_full.shape == v.shape
    assert np.allclose(d_full[2:-2], d_int)


def test_derivative_same_shape_edges_reasonable():
    x = np.linspace(0, 1, 30)
    h = x[1] - x[0]
    v = x**2
    d = derivative_same_shape(v, axis=0, order=4) / h
    assert np.allclose(d, 2 * x, atol=1e-8)  # exact for quadratics even one-sided


@pytest.mark.parametrize("order", [2, 4, 6])
@pytest.mark.parametrize("n", range(1, 8))
def test_derivative_same_shape_on_a_short_axis(order, n):
    """An axis shorter than the stencil takes the next lower order, down
    to one-sided differences at both ends: no ``IndexError``, every point
    exact on a quadratic from 3 points on (the one-sided formula too), a
    first difference on 2, zero on 1 — along either axis of a 2-D array;
    and from 2 rad + 1 points on the requested order's own stencil."""
    i = np.arange(n, dtype=float)
    want = {1: [0.0], 2: [1.0, 1.0]}.get(n, 2.0 * i)
    for axis in (0, 1):
        v = np.moveaxis(np.broadcast_to(i**2, (3, n)), -1, axis)
        d = np.moveaxis(derivative_same_shape(v, axis, order), axis, -1)
        assert d.shape == (3, n) and np.allclose(d, want, atol=1e-12)
    rad = order // 2
    if n >= 2 * rad + 1:
        got = derivative_same_shape(np.sin(i), 0, order)[rad:n - rad]
        assert np.array_equal(got, central_derivative(np.sin(i), 0,
                                                      order=order))


def test_cartesian_metrics():
    m = CartesianMetrics((0.5, 0.25, 2.0))
    assert m.jacobian().flat[0] == pytest.approx(0.25)
    mx = m.m(0)
    assert mx[0].flat[0] == pytest.approx(0.25 / 0.5)
    assert mx[1].flat[0] == 0.0
    with pytest.raises(ValueError):
        CartesianMetrics((1.0, 0.0))


def test_curvilinear_affine_mapping_exact():
    """x = A xi + b gives constant first derivatives equal to A and J =
    det(A); its second derivatives vanish (no stretching)."""
    A = np.array([[2.0, 0.5], [0.0, 1.5]])
    n = 12
    ii, jj = np.meshgrid(np.arange(n) + 0.5, np.arange(n) + 0.5, indexing="ij")
    coords = np.stack([A[0, 0] * ii + A[0, 1] * jj, A[1, 0] * ii + A[1, 1] * jj])
    met = CurvilinearMetrics.from_coordinates(coords)
    assert np.allclose(met.jacobian(), np.linalg.det(A))
    first = dx_dxi(coords)
    assert np.allclose(first[0, 0], A[0, 0])
    assert np.allclose(first[0, 1], A[0, 1])
    # m_d = J * row d of A^{-1}
    Ainv = np.linalg.inv(A)
    for d in range(2):
        for j in range(2):
            assert np.allclose(met.m(d)[j], np.linalg.det(A) * Ainv[d, j])
    q = grid_quality(coords)
    # second derivatives vanish for affine maps
    assert q["max_stretching"] == pytest.approx(0.0, abs=1e-10)
    # the grid lines are A's columns
    cols = np.linalg.norm(A, axis=0)
    assert q["max_aspect_ratio"] == pytest.approx(cols.max() / cols.min())
    assert q["max_skewness"] == pytest.approx(
        abs(A[:, 0] @ A[:, 1]) / (cols[0] * cols[1]))
    assert q["jacobian_ratio"] == pytest.approx(1.0)


def test_curvilinear_component_count_3d():
    """A patch stores dim^2 + 1 = 10 components (``m``, then ``J``), not
    the paper's 27 (9 first + 18 second derivatives of the coordinates):
    :func:`grid_quality` computes the derivatives it reads itself."""
    n = 8
    g = np.meshgrid(*[np.arange(n) + 0.5] * 3, indexing="ij")
    coords = np.stack([g[0] * 1.0, g[1] * 2.0, g[2] * 1.0])
    met = CurvilinearMetrics.from_coordinates(coords)
    assert met.arr.shape == (10, n, n, n)
    assert np.shares_memory(met.m(2), met.arr)
    assert np.shares_memory(met.jacobian(), met.arr)
    assert dx_dxi(coords).shape == (3, 3, n, n, n)
    q = grid_quality(coords)
    assert q["max_skewness"] == pytest.approx(0.0, abs=1e-12)
    assert q["max_stretching"] == pytest.approx(0.0, abs=1e-10)
    assert q["max_aspect_ratio"] == pytest.approx(2.0)


def test_curvilinear_stretched_grid_metrics():
    """Smoothly stretched 1D-like grid: J matches analytic dx/dxi."""
    n = 64
    i = np.arange(n) + 0.5
    j = np.arange(8) + 0.5
    ii, jj = np.meshgrid(i, j, indexing="ij")
    # x = sinh(alpha i / n) scaled; y uniform
    alpha = 2.0
    x = np.sinh(alpha * ii / n) / np.sinh(alpha)
    y = jj / 8.0
    met = CurvilinearMetrics.from_coordinates(np.stack([x, y]))
    first = dx_dxi(np.stack([x, y]))
    dxdi_exact = (alpha / n) * np.cosh(alpha * ii / n) / np.sinh(alpha)
    # interior cells only (edges are lower order)
    sl = (slice(4, -4), slice(2, -2))
    assert np.allclose(first[0, 0][sl], dxdi_exact[sl], rtol=1e-5)
    assert np.allclose(met.jacobian()[sl], dxdi_exact[sl] / 8.0, rtol=1e-5)


def test_curvilinear_gcl_residual_small():
    n = 32
    ii, jj = np.meshgrid(np.arange(n) + 0.5, np.arange(n) + 0.5, indexing="ij")
    x = ii + 0.1 * np.sin(2 * np.pi * jj / n) * n / (2 * np.pi)
    y = jj + 0.1 * np.sin(2 * np.pi * ii / n) * n / (2 * np.pi)
    met = CurvilinearMetrics.from_coordinates(np.stack([x, y]))
    res = met.gcl_residual()
    interior = (slice(None), slice(4, -4), slice(4, -4))
    # metric identities hold to discretization error
    assert np.abs(res[interior]).max() < 1e-3


@pytest.mark.parametrize("dim", [2, 3])
def test_metric_arrays_are_component_major(dim):
    """Each ``m(d)[j]`` is unit-stride along the grid — for one patch, a
    stack of one and a stack of several (whose members are views of it)
    — with the bits of the cofactors of ``dx/dxi`` (:func:`cofactors`):
    a stacked ``(N, d, j)`` inverse would be storage every kernel walks
    strided."""
    shape = (9, 8, 7)[:dim]
    idx = np.stack(np.meshgrid(*[np.arange(n) + 0.5 for n in shape],
                               indexing="ij"))

    def coords(k):
        return idx + 0.1 * np.sin(0.4 * idx[::-1] + k)

    def patch(k):
        return CurvilinearMetrics.from_coordinates(coords(k))

    one = patch(0)
    J, ref = cofactors(dx_dxi(coords(0)))
    assert np.array_equal(one._m, ref) and np.array_equal(one.jacobian(), J)
    members = [patch(k) for k in range(3)]
    several = StackedMetrics(members)
    for met in (one, StackedMetrics([patch(0)]), several):
        for d in range(dim):
            assert met.m(d).flags.c_contiguous
            assert met.m(d).dtype == np.float64
        assert met.jacobian().flags.c_contiguous
    for b, mem in enumerate(members):
        # the stack copies its members in: patch b's metrics are its
        # member b, views into it, and the input holds nothing of it
        got = several.member(b)
        assert np.shares_memory(got.m(0), several.m(0))
        assert not np.shares_memory(mem.m(0), several.m(0))
        assert np.array_equal(got.m(1), patch(b).m(1))
        assert got.m(1)[0].flags.c_contiguous


def cofactors(T):
    """``(J, m)`` of one patch's ``T[j, d] = dx_j/dxi_d`` ``(dim, dim,
    *s)``: ``m[d, j] = J dxi_d/dx_j`` is the cofactor of ``T[j, d]`` and
    ``J`` the expansion of ``T``'s first row in them, left to right."""
    m = np.empty_like(T)
    for j in range(len(T)):
        for d in range(len(T)):
            if len(T) == 2:
                m[d, j] = (-1) ** (j + d) * T[1 - j, 1 - d]
            else:
                a, b, e, f = (j + 1) % 3, (j + 2) % 3, (d + 1) % 3, (d + 2) % 3
                m[d, j] = T[a, e] * T[b, f] - T[a, f] * T[b, e]
    J = T[0, 0] * m[0, 0]
    for d in range(1, len(T)):
        J = J + T[0, d] * m[d, 0]
    return J, m


@st.composite
def smooth_mappings(draw):
    """Cell-center coordinates ``(dim, *s)`` of a smooth mapping: a
    sheared, scaled and rotated lattice under a sine bump small enough
    that ``dx/dxi`` stays orientation-preserving."""
    dim = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.integers(5, 12 if dim == 2 else 7))
                  for _ in range(dim))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    q[:, 0] *= np.sign(np.linalg.det(q))  # a rotation
    lin = q @ np.diag(rng.uniform(0.01, 10.0, dim)) @ (
        np.eye(dim) + np.triu(rng.uniform(-0.5, 0.5, (dim, dim)), 1))
    xi = np.indices(shape).astype(float) + 0.5
    x = np.tensordot(lin, xi, axes=1)
    k = rng.uniform(0.05, 0.4, dim)
    amp = draw(st.floats(0.0, 0.1)) / (k.sum() * np.abs(lin).sum())
    bump = np.sin(np.tensordot(k, xi, axes=1) + rng.uniform(0, 6))
    return x + amp * np.abs(lin).sum(axis=1)[(slice(None),) + (None,) * dim] * bump


@settings(max_examples=60, deadline=None)
@given(smooth_mappings())
def test_cofactor_metrics_equal_lapack_to_rounding(coords):
    """The cofactor build is ``det`` and ``J inv`` of LAPACK's LU to a
    relative 1e-12 (the declared class against the build it replaced);
    the mirror image of the same grid has ``J < 0`` and is refused."""
    dim = len(coords)
    met = CurvilinearMetrics.from_coordinates(coords)
    T = np.moveaxis(dx_dxi(coords).reshape(dim, dim, -1), -1, 0)
    J = np.linalg.det(T)
    m = (J[:, None, None] * np.linalg.inv(T)).transpose(1, 2, 0)
    got = np.stack([met.m(d) for d in range(dim)]).reshape(m.shape)
    assert np.abs(got - m).max() <= 1e-12 * np.abs(m).max()
    assert np.abs(met.jacobian().ravel() - J).max() <= 1e-12 * np.abs(J).max()
    with pytest.raises(ValueError, match="J <= 0"):
        CurvilinearMetrics.from_coordinates(coords[::-1] if dim == 2 else
                                            coords * [[[[-1]]], [[[1]]], [[[1]]]])


def test_curvilinear_rejects_folded_grid():
    n = 8
    ii, jj = np.meshgrid(np.arange(n, 0, -1) + 0.5, np.arange(n) + 0.5,
                         indexing="ij")
    with pytest.raises(ValueError):
        CurvilinearMetrics.from_coordinates(np.stack([ii * 1.0, jj * 1.0]))


def test_curvilinear_shape_validation():
    with pytest.raises(ValueError):
        CurvilinearMetrics.from_coordinates(np.zeros((2, 5)))


def test_grid_quality_uniform_grid():
    n = 16
    g = np.meshgrid(np.arange(n) + 0.5, (np.arange(n) + 0.5) * 2.0,
                    indexing="ij")
    q = grid_quality(np.stack(g).astype(float))
    assert q["max_skewness"] == pytest.approx(0.0, abs=1e-12)
    assert q["max_stretching"] == pytest.approx(0.0, abs=1e-10)
    assert q["max_aspect_ratio"] == pytest.approx(2.0)
    assert q["jacobian_ratio"] == pytest.approx(1.0)


def test_grid_quality_detects_stretching_and_skew():
    from repro.cases.grids import compression_ramp_mapping, tanh_cluster_mapping

    n = 32
    s = np.stack(np.meshgrid((np.arange(n) + 0.5) / n,
                             (np.arange(n) + 0.5) / n, indexing="ij"))
    # wall clustering: strong stretching, no skew
    q1 = grid_quality(tanh_cluster_mapping((1.0, 1.0), beta=3.0)(s))
    assert q1["max_stretching"] > 0.05
    assert q1["max_skewness"] < 0.01
    # ramp shear: skewed grid lines
    q2 = grid_quality(compression_ramp_mapping((2.0, 1.0), angle_deg=30.0)(s))
    assert q2["max_skewness"] > 0.2
