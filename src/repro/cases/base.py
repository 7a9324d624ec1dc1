"""The Case interface: everything problem-specific the driver needs."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.amr.boundary import GhostFaces
from repro.amr.box import Box
from repro.amr.geometry import Geometry
from repro.numerics.state import StateLayout
from repro.numerics.viscous import ViscousFlux


class Case:
    """Base class for flow problems.

    Subclasses define the computational domain, the (possibly curvilinear)
    grid mapping, the initial condition, physical boundary conditions, and
    the refinement tagging threshold.
    """

    #: problem name for reports
    name: str = "case"
    #: coarse-level cells per direction
    domain_cells: Tuple[int, ...] = (64, 64)
    #: physical domain lengths (the default mapping scales the unit box)
    prob_extent: Tuple[float, ...] = (1.0, 1.0)
    #: periodicity per direction
    periodic: Tuple[bool, ...] = (False, False)
    #: whether the grid mapping is non-Cartesian
    curvilinear: bool = False
    #: refinement tagging threshold on the density gradient
    tag_threshold: float = 0.1
    #: CFL number (the paper: RK3 stable for CFL <= 1)
    cfl: float = 0.5
    #: the ``(axis, side)`` domain faces ``bc_fill`` fills
    bc_faces: Tuple[Tuple[int, str], ...] = ()

    def __init__(self) -> None:
        self.layout = StateLayout(nspecies=1, dim=len(self.domain_cells))
        self.eos = self.make_eos()
        self.viscous = self.make_viscous()

    # -- physics hooks ----------------------------------------------------
    def make_eos(self):
        from repro.numerics.eos import IdealGasEOS

        return IdealGasEOS(gamma=1.4)

    def make_viscous(self) -> Optional[ViscousFlux]:
        """Return a ViscousFlux or None for inviscid problems."""
        return None

    @property
    def dim(self) -> int:
        return len(self.domain_cells)

    # -- geometry -----------------------------------------------------------
    def geometry0(self) -> Geometry:
        """Level-0 computational-domain geometry (unit computational box)."""
        n = self.domain_cells
        return Geometry(
            Box.from_extent([0] * self.dim, list(n)),
            [0.0] * self.dim,
            [1.0] * self.dim,
            self.periodic,
        )

    def mapping(self, s: np.ndarray) -> np.ndarray:
        """Physical coordinates from unit computational coordinates.

        ``s`` has shape (dim, ...) with components nominally in [0, 1]
        (ghost cells fall slightly outside; the mapping must extend
        smoothly).  The default scales the unit box to ``prob_extent``
        (uniform Cartesian).
        """
        ext = np.asarray(self.prob_extent, dtype=np.float64)
        return s * ext.reshape((-1,) + (1,) * (s.ndim - 1))

    def cartesian_dx(self, geom: Geometry) -> Tuple[float, ...]:
        """Physical cell sizes at a level (Cartesian cases only)."""
        n = geom.domain.size()
        return tuple(self.prob_extent[d] / n[d] for d in range(self.dim))

    def coordinates(self, geom: Geometry, regions: np.ndarray) -> np.ndarray:
        """Cell-center physical coordinates at this level over equal-shape
        regions ``(B, 2, dim)`` (``lohi_of`` of boxes), in one mapping
        pass: ``(dim, B, *shape)``."""
        n = geom.domain.size()
        shape = tuple((regions[0, 1] - regions[0, 0] + 1).tolist())
        s = np.empty((self.dim, len(regions)) + shape)
        for d in range(self.dim):
            line = (regions[:, 0, d, None] + np.arange(shape[d]) + 0.5) / n[d]
            s[d] = line.reshape((len(regions),) + (1,) * d + shape[d:d + 1]
                                + (1,) * (self.dim - d - 1))
        return self.mapping(s)

    # -- state hooks -------------------------------------------------------
    def initial_condition(self, coords: np.ndarray, time: float = 0.0) -> np.ndarray:
        """Conservative state from physical coordinates, shape (ncons, ...)."""
        raise NotImplementedError

    def bc_fill(self, faces: GhostFaces, time: float) -> None:
        """Apply physical boundary conditions in a whole level's outside-
        domain ghost cells, one face of :attr:`bc_faces` (``faces[axis,
        side]``) at a time.  The default does nothing (fully periodic)."""

    def exact_solution(self, coords: np.ndarray, time: float) -> Optional[np.ndarray]:
        """Exact solution for validation, if available."""
        return None

    def source(self, u: np.ndarray, coords: np.ndarray, time: float,
               metrics=None) -> Optional[np.ndarray]:
        """Conservative source terms (chemistry w_s of Eq. 1, SGS budgets).

        Called on each patch's valid region every RK stage with that
        patch's (interior-cropped) metrics; return None (the default) for
        source-free problems.
        """
        return None


def zero_gradient(faces: GhostFaces, axis: int, sides=("lo", "hi")) -> None:
    """Transmissive boundaries: every ghost cell beyond the ``sides`` of
    ``axis`` takes the value of the domain's last cell on its line."""
    u = faces.data
    for side in sides:
        face = faces[axis, side]
        if face is not None:
            face.ghost.put(u, face.edge.take(u))
