"""Generalized curvilinear grid metrics.

The physical domain ``x_j`` is mapped onto the rectangular computational
domain ``xi_d`` (cell index space, unit spacing).  Solving the governing
equations in strong conservation-law form requires the first-order metric
terms ``J * d(xi_d)/d(x_j)`` and the Jacobian ``J = det(dx/dxi)``; CRoCCo
additionally stores the second-order metrics ``d2 x_j / d xi_d d xi_e``
(Sec. III-C: 9 first- plus 18 second-derivative components = the paper's
27-component metrics MultiFab).  No step reads the second-order ones, so
they are computed from the first-order ones when first read.

Metric derivatives are reconstructed with 4th-order central differences of
the *stored coordinates* — curvilinear grids are generated from complex
hyperbolic/trigonometric mappings, so coordinates are kept in memory
rather than recomputed (the paper's data-management point).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

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
        """A view of these metrics with ``ng`` cells cropped on every side."""
        if ng == 0:
            return self
        return _CroppedMetrics(self, ng)


class _CroppedMetrics(Metrics):
    """Metrics restricted to the interior of a grown region."""

    def __init__(self, base: Metrics, ng: int) -> None:
        self._base = base
        self._ng = ng
        self.dim = base.dim

    def _crop(self, arr: np.ndarray) -> np.ndarray:
        sl = tuple(
            slice(None) if n == 1 else slice(self._ng, n - self._ng)
            for n in arr.shape[-self.dim:]
        )
        return arr[(Ellipsis,) + sl]

    def m(self, d: int) -> np.ndarray:
        return self._crop(self._base.m(d))

    def jacobian(self) -> np.ndarray:
        return self._crop(self._base.jacobian())


class StackedMetrics(Metrics):
    """The metrics of ``B`` equal-shape patches on one batch axis:
    ``m(d)`` is ``(dim, B, *grid)``, ``jacobian()`` ``(B, *grid)``.

    The stack is the level storage of its patches' metrics, C-contiguous
    on the batch axis as the compiled sweep reads them, and its
    :meth:`member` ``b`` is patch ``b``'s metrics as views into it: a
    level keeps one copy of each array.  A batch built from coordinates
    holds the arrays of that one pass (:meth:`of_coordinates`); one that
    holds boxes a remake kept copies its members in, so it holds nothing
    of the level it replaced.
    """

    def __init__(self, members: Sequence[Metrics]) -> None:
        dim = members[0].dim
        #: m[d, j] of every member, (dim, dim, B, *grid)
        m = np.ascontiguousarray(
            np.stack([np.stack([mem.m(d) for mem in members], axis=1)
                      for d in range(dim)]))
        J = np.stack([mem.jacobian() for mem in members])
        if isinstance(members[0], CurvilinearMetrics):
            self._hold(m, J, np.stack([mem.first for mem in members]),
                       members[0].order)
        else:
            self._hold(m, J, members=list(members))

    @classmethod
    def of_coordinates(cls, coords: Sequence[np.ndarray],
                       order: int = 4) -> "StackedMetrics":
        """The curvilinear metrics of equal-shape patches, built on the
        batch axis in place: the stack holds the arrays of the one pass
        over the patches' coordinates (``(dim, *s)`` each), nothing copied."""
        stack = cls.__new__(cls)
        stack._hold(*_curvilinear_arrays(coords, order), order)
        return stack

    def _hold(self, m, J, first=None, order=4, members=None) -> None:
        self.dim = m.shape[0]
        self._m, self._J = m, J
        self._members: List[Metrics] = members if first is None else [
            CurvilinearMetrics(first[b], J[b], m[:, :, b], order)
            for b in range(len(J))]

    def m(self, d: int) -> np.ndarray:
        return self._m[d]

    def jacobian(self) -> np.ndarray:
        return self._J

    def member(self, b: int) -> Metrics:
        """Patch ``b``'s own metrics (views into the stack)."""
        return self._members[b]


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


class CurvilinearMetrics(Metrics):
    """Metrics reconstructed from stored physical coordinates."""

    def __init__(self, first: np.ndarray, J: np.ndarray,
                 m_arrays: np.ndarray, order: int = 4) -> None:
        #: dx_j/dxi_d, shape (dim, dim, *s): first[j, d]
        self.first = first
        #: the stencil order of the derivatives
        self.order = order
        self._second: Optional[np.ndarray] = None
        self._J = J
        #: J * dxi_d/dx_j, shape (dim, dim, *s): m_arrays[d, j]
        self._m = m_arrays
        self.dim = first.shape[0]

    @classmethod
    def from_coordinates(cls, coords: np.ndarray, order: int = 4) -> "CurvilinearMetrics":
        """Build metrics from cell-center coordinates, shape (dim, *s)."""
        if coords.ndim != coords.shape[0] + 1:
            raise ValueError("coords must have shape (dim, *grid shape)")
        return cls.of_patches([coords], order)[0]

    @classmethod
    def of_patches(cls, coords: Sequence[np.ndarray],
                   order: int = 4) -> List["CurvilinearMetrics"]:
        """Metrics of equal-shape patches from their coordinates (dim, *s),
        in one pass on a batch axis (one patch is not copied onto it): the
        stencils and the cofactors are elementwise along it, so each patch
        gets the bits of its own build, as views."""
        return StackedMetrics.of_coordinates(coords, order)._members

    @property
    def second(self) -> np.ndarray:
        """d2 x_j / dxi_d dxi_e for d <= e, shape (dim, npairs, *s):
        computed on first read (the bits of a build with the first-order
        metrics), then kept."""
        if self._second is None:
            pairs = [(d, e) for d in range(self.dim) for e in range(d, self.dim)]
            self._second = np.stack([derivative_same_shape(
                self.first[:, d], e + 1, self.order) for d, e in pairs], axis=1)
        return self._second

    @property
    def ncomp_stored(self) -> int:
        """Stored metric components: dim^2 first + dim*npairs second."""
        npairs = self.dim * (self.dim + 1) // 2
        return self.dim * self.dim + self.dim * npairs

    def m(self, d: int) -> np.ndarray:
        return self._m[d]

    def jacobian(self) -> np.ndarray:
        return self._J

    def gcl_residual(self) -> np.ndarray:
        """Geometric conservation law residual sum_d d(m_d)/d(xi_d).

        Exactly zero analytically; small (discretization-level) on smooth
        grids — freestream preservation check.
        """
        dim = self.dim
        res = np.zeros((dim,) + self.first.shape[2:])
        for j in range(dim):
            for d in range(dim):
                res[j] += derivative_same_shape(self._m[d, j], axis=d)
        return res


def _curvilinear_arrays(coords: Sequence[np.ndarray], order: int):
    """``(m, J, first)`` of equal-shape patches from their
    coordinates, on a batch axis: ``m`` is ``(dim, dim, B, *s)``
    (component-major: each ``m[d, j]`` unit-stride along the batch and
    grid), the others batch-first."""
    coords = np.stack(coords) if len(coords) > 1 else coords[0][None]
    nb, dim = coords.shape[:2]
    s = coords.shape[2:]
    # first metrics T[j, d] = d x_j / d xi_d
    # (every x_j at once: the component axis is one more batch axis)
    first = np.empty((nb, dim, dim) + s)
    for d in range(dim):
        first[:, :, d] = derivative_same_shape(coords, d + 2, order)
    # m[d, j] = J d xi_d / d x_j is the cofactor of T[j, d], and J the
    # expansion of T's first row in them: products and differences only
    T, m = first, np.ones((dim, dim, nb) + s)  # 1-D: a 1x1 matrix's is 1
    for j, d in np.ndindex(dim, dim):
        a, b, e, f = (j + 1) % 3, (j + 2) % 3, (d + 1) % 3, (d + 2) % 3
        if dim == 2:
            m[d, j] = T[:, 1 - j, 1 - d] * (-1) ** (j + d)
        elif dim == 3:
            m[d, j] = T[:, a, e] * T[:, b, f] - T[:, a, f] * T[:, b, e]
    J = sum(T[:, 0, d] * m[d, 0] for d in range(dim))
    if np.any(J <= 0):
        raise ValueError("grid mapping is not orientation-preserving (J <= 0)")
    return m, J, first


def grid_quality(metrics: "CurvilinearMetrics", interior: int = 2) -> dict:
    """Grid-quality diagnostics from the stored 27-component metrics.

    Uses both metric orders the paper stores (Sec. III-C): first
    derivatives give cell skewness (departure of grid-line angles from
    orthogonal) and aspect ratio; second derivatives give the relative
    stretching rate |d2x/dxi2| / |dx/dxi| — the smoothness criterion grid
    generators target, and the quantity that controls metric-induced
    truncation error in curvilinear solvers.
    """
    dim = metrics.dim
    sl = tuple(slice(interior, -interior) for _ in range(dim))
    first = metrics.first[(slice(None), slice(None)) + sl]
    second = metrics.second[(slice(None), slice(None)) + sl]

    # edge vectors e_d = dx/dxi_d, shape (dim, dim, ...) -> (j, d)
    norms = np.sqrt((first**2).sum(axis=0))  # |e_d| per direction
    max_aspect = float((norms.max(axis=0) / norms.min(axis=0)).max())

    # skewness: worst |cos(angle)| between distinct grid directions
    max_skew = 0.0
    for d in range(dim):
        for e in range(d + 1, dim):
            dot = (first[:, d] * first[:, e]).sum(axis=0)
            cosang = np.abs(dot) / (norms[d] * norms[e])
            max_skew = max(max_skew, float(cosang.max()))

    # stretching: |d2 x / dxi_d^2| / |dx/dxi_d| per direction (the
    # diagonal entries of the stored second-derivative block)
    pairs = [(d, e) for d in range(dim) for e in range(d, dim)]
    max_stretch = 0.0
    for k, (d, e) in enumerate(pairs):
        if d != e:
            continue
        curv = np.sqrt((second[:, k] ** 2).sum(axis=0))
        max_stretch = max(max_stretch, float((curv / norms[d]).max()))

    return {
        "max_aspect_ratio": max_aspect,
        "max_skewness": max_skew,  # 0 = orthogonal, 1 = degenerate
        "max_stretching": max_stretch,  # 0 = uniform spacing
        "jacobian_ratio": float(
            metrics.jacobian()[sl].max() / metrics.jacobian()[sl].min()
        ),
    }
