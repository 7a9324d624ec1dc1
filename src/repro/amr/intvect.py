"""Integer index vectors for box-structured grids.

``IntVect`` is the dimension-aware integer tuple used throughout the AMR
substrate for cell indices, box extents, refinement ratios, and ghost
widths.  It mirrors ``amrex::IntVect`` semantics: componentwise arithmetic,
comparisons, and min/max reductions.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

IntVectLike = Union["IntVect", int, Sequence[int]]


class IntVect:
    """A small immutable integer vector of dimension 1, 2 or 3.

    Supports componentwise ``+ - * //``, scalar broadcasting, the
    componentwise comparison ``allLE`` and ``min_with``/``max_with``.
    """

    __slots__ = ("_v",)

    def __init__(self, *components: int) -> None:
        if len(components) == 1 and not isinstance(components[0], int):
            components = tuple(components[0])
        if not 1 <= len(components) <= 3:
            raise ValueError(f"IntVect dimension must be 1..3, got {len(components)}")
        if not all(isinstance(c, (int,)) or hasattr(c, "__index__") for c in components):
            raise TypeError(f"IntVect components must be integers, got {components!r}")
        self._v = tuple(int(c) for c in components)

    # -- construction helpers ------------------------------------------------
    @classmethod
    def unit(cls, dim: int) -> "IntVect":
        """The all-ones vector of the given dimension."""
        return cls(*([1] * dim))

    @classmethod
    def filled(cls, dim: int, value: int) -> "IntVect":
        """A vector with every component equal to ``value``."""
        return cls(*([value] * dim))

    @classmethod
    def coerce(cls, value: IntVectLike, dim: int) -> "IntVect":
        """Coerce an int, sequence, or IntVect to an IntVect of dimension ``dim``."""
        if isinstance(value, IntVect):
            if value.dim != dim:
                raise ValueError(f"expected dim {dim}, got {value.dim}")
            return value
        if isinstance(value, int) or hasattr(value, "__index__"):
            return cls.filled(dim, int(value))
        iv = cls(*value)
        if iv.dim != dim:
            raise ValueError(f"expected dim {dim}, got {iv.dim}")
        return iv

    # -- basic protocol --------------------------------------------------
    @property
    def dim(self) -> int:
        return len(self._v)

    def __len__(self) -> int:
        return len(self._v)

    def __iter__(self) -> Iterator[int]:
        return iter(self._v)

    def __getitem__(self, i: int) -> int:
        return self._v[i]

    def __hash__(self) -> int:
        return hash(self._v)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntVect):
            return self._v == other._v
        if isinstance(other, (tuple, list)):
            return self._v == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"IntVect{self._v}"

    def tup(self) -> tuple:
        """The underlying tuple of components."""
        return self._v

    # -- arithmetic --------------------------------------------------------
    def _coerced(self, other: IntVectLike) -> "IntVect":
        return IntVect.coerce(other, self.dim)

    def __add__(self, other: IntVectLike) -> "IntVect":
        o = self._coerced(other)
        return IntVect(*(a + b for a, b in zip(self._v, o._v)))

    __radd__ = __add__

    def __sub__(self, other: IntVectLike) -> "IntVect":
        o = self._coerced(other)
        return IntVect(*(a - b for a, b in zip(self._v, o._v)))

    def __mul__(self, other: IntVectLike) -> "IntVect":
        o = self._coerced(other)
        return IntVect(*(a * b for a, b in zip(self._v, o._v)))

    __rmul__ = __mul__

    def __floordiv__(self, other: IntVectLike) -> "IntVect":
        o = self._coerced(other)
        return IntVect(*(a // b for a, b in zip(self._v, o._v)))

    # coarsen rounds toward -infinity, matching AMReX's amrex::coarsen
    def coarsen(self, ratio: IntVectLike) -> "IntVect":
        """Coarsen an index by a refinement ratio, rounding toward -inf."""
        r = self._coerced(ratio)
        if any(c <= 0 for c in r._v):
            raise ValueError(f"coarsening ratio must be positive, got {r}")
        return IntVect(*(a // b for a, b in zip(self._v, r._v)))

    # -- comparisons / reductions -------------------------------------------
    def allLE(self, other: IntVectLike) -> bool:
        o = self._coerced(other)
        return all(a <= b for a, b in zip(self._v, o._v))

    def min_with(self, other: IntVectLike) -> "IntVect":
        o = self._coerced(other)
        return IntVect(*(min(a, b) for a, b in zip(self._v, o._v)))

    def max_with(self, other: IntVectLike) -> "IntVect":
        o = self._coerced(other)
        return IntVect(*(max(a, b) for a, b in zip(self._v, o._v)))

    def min(self) -> int:
        return min(self._v)
