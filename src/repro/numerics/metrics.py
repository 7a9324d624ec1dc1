"""Generalized curvilinear grid metrics.

The physical domain ``x_j`` is mapped onto the rectangular computational
domain ``xi_d`` (cell index space, unit spacing).  Solving the governing
equations in strong conservation-law form requires the first-order metric
terms ``J * d(xi_d)/d(x_j)`` and the Jacobian ``J = det(dx/dxi)``.  CRoCCo
additionally stores the first- and second-order derivatives of the
coordinates (Sec. III-C: 9 first- plus 18 second-derivative components =
the paper's 27-component metrics MultiFab).  No step reads those, so a
level of ours stores ``m`` and ``J`` only (``dim^2 + 1`` components), and
:func:`grid_quality` computes the derivatives it needs from coordinates.

Metric derivatives are reconstructed with 4th-order central differences of
the *stored coordinates* — curvilinear grids are generated from complex
hyperbolic/trigonometric mappings, so coordinates are kept in memory
rather than recomputed (the paper's data-management point).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.numerics.stencils import FIRST_DERIVATIVE


def derivative_same_shape(v: np.ndarray, axis: int, order: int = 4) -> np.ndarray:
    """First derivative along ``axis`` keeping the array shape.

    Interior points use the central stencil of the requested order; points
    near the array edge fall back to lower-order central and finally
    one-sided 2nd-order differences (1st-order on 2 points, 0 on 1).  An
    axis too short for the requested order's stencil takes the next lower
    order's.  Metrics are computed once per level (re)build, so the edge
    fallback only affects outermost ghost cells.
    """
    offsets, coeffs = FIRST_DERIVATIVE[order]
    rad = max(abs(o) for o in offsets)
    if order > 2 and v.shape[axis] < 2 * rad + 1:
        return derivative_same_shape(v, axis, order - 2)
    v = v.swapaxes(axis, -1)
    n = v.shape[-1]
    out = np.empty_like(v)
    if n >= 2 * rad + 1:
        acc = np.zeros(v.shape[:-1] + (n - 2 * rad,))
        for o, c in zip(offsets, coeffs):
            acc += c * v[..., rad + o: n - rad + o]
        out[..., rad:n - rad] = acc
    # the edge points: 2nd-order central, one-sided at the two ends
    for i in (*range(1, min(rad, n - 1)), *range(max(n - rad, 1), n - 1)):
        out[..., i] = 0.5 * (v[..., i + 1] - v[..., i - 1])
    if n >= 3:
        out[..., 0] = -1.5 * v[..., 0] + 2.0 * v[..., 1] - 0.5 * v[..., 2]
        out[..., n - 1] = 1.5 * v[..., n - 1] - 2.0 * v[..., n - 2] + 0.5 * v[..., n - 3]
    else:  # on 2 points a first difference, on 1 zero
        out[...] = v[..., 1:] - v[..., :1] if n == 2 else 0.0
    return out.swapaxes(axis, -1)


class Metrics:
    """Interface used by the flux kernels.

    The grid axes are the *trailing* ``dim`` axes of every metric array;
    a batch of equal-shape patches (:class:`StackedMetrics`) puts its
    batch axis between the component axis and the grid.
    """

    dim: int

    def m(self, d: int) -> np.ndarray:
        """J * grad(xi_d) components, shape (dim, *grid shape)."""
        raise NotImplementedError

    def jacobian(self) -> np.ndarray:
        """J = det(dx/dxi), shape (*grid shape) (broadcastable)."""
        raise NotImplementedError

    def interior(self, ng: int) -> "Metrics":
        """These metrics with ``ng`` cells cropped on every side of the
        grid, a view of the same class (a broadcast axis of one cell is
        kept)."""
        raise NotImplementedError


class CartesianMetrics(Metrics):
    """Uniform Cartesian grid: analytic, memory-free metrics.

    x_j = lo_j + (i_j + 1/2) dx_j  =>  dx/dxi = diag(dx),
    J = prod(dx), J * grad(xi_d) = (J / dx_d) e_d.
    """

    def __init__(self, dx: Sequence[float]) -> None:
        self.dx = tuple(float(d) for d in dx)
        if any(d <= 0 for d in self.dx):
            raise ValueError("cell sizes must be positive")
        self.dim = len(self.dx)
        self._J = float(np.prod(self.dx))

    def m(self, d: int) -> np.ndarray:
        out = np.zeros((self.dim,) + (1,) * self.dim)
        out[d] = self._J / self.dx[d]
        return out

    def jacobian(self) -> np.ndarray:
        return np.full((1,) * self.dim, self._J)

    def interior(self, ng: int) -> "CartesianMetrics":
        return self  # uniform: every crop is the same metrics


class CurvilinearMetrics(Metrics):
    """Metrics as a level stores them: views of one array ``(dim^2 + 1,
    *grid)`` — ``m[d, j] = J d(xi_d)/d(x_j)`` in component-major order,
    then ``J`` — the rows of a patch in its level's metric MultiFab."""

    def __init__(self, arr: np.ndarray) -> None:
        self.dim = dim = math.isqrt(len(arr) - 1)
        self.arr = arr
        #: m[d, j], shape (dim, dim, *grid)
        self._m = arr[:dim * dim].reshape((dim, dim) + arr.shape[1:])
        self._J = arr[dim * dim]

    @classmethod
    def from_coordinates(cls, coords: np.ndarray, order: int = 4) -> "CurvilinearMetrics":
        """Build metrics from cell-center coordinates, shape (dim, *s)."""
        if coords.ndim != coords.shape[0] + 1:
            raise ValueError("coords must have shape (dim, *grid shape)")
        dim = len(coords)
        arr = np.empty((dim * dim + 1,) + coords.shape[1:])
        write_metrics(coords, arr, order)
        return cls(arr)

    def m(self, d: int) -> np.ndarray:
        return self._m[d]

    def jacobian(self) -> np.ndarray:
        return self._J

    def interior(self, ng: int) -> "CurvilinearMetrics":
        if ng == 0:
            return self
        return type(self)(self.arr[(Ellipsis,) + tuple(
            slice(None) if n == 1 else slice(ng, n - ng)
            for n in self.arr.shape[-self.dim:])])

    def gcl_residual(self) -> np.ndarray:
        """Geometric conservation law residual sum_d d(m_d)/d(xi_d).

        Exactly zero analytically; small (discretization-level) on smooth
        grids — freestream preservation check.
        """
        dim = self.dim
        res = np.zeros((dim,) + self._J.shape)
        for j in range(dim):
            for d in range(dim):
                res[j] += derivative_same_shape(self._m[d, j], axis=d)
        return res


class StackedMetrics(CurvilinearMetrics):
    """The metrics of ``B`` equal-shape patches on one batch axis:
    ``m(d)`` is ``(dim, B, *grid)``, ``jacobian()`` ``(B, *grid)``.

    They are views of one array ``arr (dim^2 + 1, B, *grid)``,
    C-contiguous as the compiled sweep reads it: a curvilinear batch's is
    its group array of the level's metric MultiFab.  Given a sequence of
    member metrics instead, the stack holds copies of theirs (a Cartesian
    batch's broadcast ones).  Its :meth:`member` ``b`` is patch ``b``'s
    metrics, the ``[:, b]`` view.
    """

    def __init__(self, arr) -> None:
        if not isinstance(arr, np.ndarray):  # members: copied in
            arr = np.stack([np.concatenate(
                [mem.m(d) for d in range(mem.dim)] + [mem.jacobian()[None]])
                for mem in arr], axis=1)
        super().__init__(arr)

    def member(self, b: int) -> CurvilinearMetrics:
        """Patch ``b``'s own metrics (views into the stack)."""
        return CurvilinearMetrics(self.arr[:, b])


def dx_dxi(coords: np.ndarray, order: int = 4) -> np.ndarray:
    """``T[j, d] = d x_j / d xi_d`` of coordinates ``(dim, ..., *grid)``
    (the grid is the trailing ``dim`` axes), shape ``(dim, dim, ...,
    *grid)``; every ``x_j`` at once: the component axis is one more batch
    axis of the stencil."""
    dim = len(coords)
    T = np.empty((dim, dim) + coords.shape[1:])
    for d in range(dim):
        T[:, d] = derivative_same_shape(coords, d - dim, order)
    return T


def write_metrics(coords: np.ndarray, out: np.ndarray,
                  order: int = 4) -> None:
    """Write ``m`` and ``J`` of the coordinates ``(dim, ..., *grid)``
    into the rows ``out (dim^2 + 1, ..., *grid)``: ``m[d, j] = J d xi_d
    / d x_j`` (row ``d * dim + j``) is the cofactor of ``T[j, d]``, and
    ``J`` (the last row) the expansion of ``T``'s first row in them:
    products and differences only, elementwise, so a patch gets the bits
    of its own build in any batch."""
    dim = len(coords)
    T = dx_dxi(coords, order)
    for j, d in np.ndindex(dim, dim):
        if dim == 2:
            out[d * dim + j] = T[1 - j, 1 - d] * (-1) ** (j + d)
        elif dim == 3:
            a, b, e, f = (j + 1) % 3, (j + 2) % 3, (d + 1) % 3, (d + 2) % 3
            out[d * dim + j] = T[a, e] * T[b, f] - T[a, f] * T[b, e]
        else:  # a 1x1 matrix's cofactor
            out[0] = 1.0
    out[dim * dim] = sum(T[0, d] * out[d * dim] for d in range(dim))
    del T
    if np.any(out[dim * dim] <= 0):
        raise ValueError("grid mapping is not orientation-preserving (J <= 0)")


def grid_quality(coords: np.ndarray, interior: int = 2) -> dict:
    """Grid-quality diagnostics of cell-center coordinates ``(dim, *s)``.

    Uses both metric orders the paper stores (Sec. III-C), computed here
    from the coordinates (a level stores neither): first derivatives give
    cell skewness (departure of grid-line angles from orthogonal) and
    aspect ratio; second derivatives give the relative stretching rate
    |d2x/dxi2| / |dx/dxi| — the smoothness criterion grid generators
    target, and the quantity that controls metric-induced truncation
    error in curvilinear solvers.
    """
    dim = len(coords)
    sl = (Ellipsis,) + tuple(slice(interior, -interior) for _ in range(dim))
    first = dx_dxi(coords)
    inner = first[sl]
    J = CurvilinearMetrics.from_coordinates(coords).jacobian()[sl]

    # edge vectors e_d = dx/dxi_d, shape (dim, dim, ...) -> (j, d)
    norms = np.sqrt((inner**2).sum(axis=0))  # |e_d| per direction
    max_aspect = float((norms.max(axis=0) / norms.min(axis=0)).max())

    # skewness: worst |cos(angle)| between distinct grid directions
    max_skew = 0.0
    for d in range(dim):
        for e in range(d + 1, dim):
            dot = (inner[:, d] * inner[:, e]).sum(axis=0)
            cosang = np.abs(dot) / (norms[d] * norms[e])
            max_skew = max(max_skew, float(cosang.max()))

    # stretching: |d2 x / dxi_d^2| / |dx/dxi_d| per direction
    max_stretch = 0.0
    for d in range(dim):
        second = derivative_same_shape(first[:, d], d + 1)[sl]
        curv = np.sqrt((second**2).sum(axis=0))
        max_stretch = max(max_stretch, float((curv / norms[d]).max()))

    return {
        "max_aspect_ratio": max_aspect,
        "max_skewness": max_skew,  # 0 = orthogonal, 1 = degenerate
        "max_stretching": max_stretch,  # 0 = uniform spacing
        "jacobian_ratio": float(J.max() / J.min()),
    }
