"""Sod shock tube: the standard 1D validation problem.

Left state (1, 0, 1), right state (0.125, 0, 0.1), gamma = 1.4.  The exact
solution comes from the Riemann solver in :mod:`repro.cases.riemann`;
CRoCCo's WENO solution is compared against it in the integration tests.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cases.base import Case, zero_gradient
from repro.cases.riemann import PrimitiveState, sample


class SodShockTube(Case):
    """1D Sod problem on x in [0, 1], diaphragm at 0.5."""

    name = "sod"
    domain_cells: Tuple[int, ...] = (128,)
    prob_extent: Tuple[float, ...] = (1.0,)
    periodic: Tuple[bool, ...] = (False,)
    bc_faces = ((0, "lo"), (0, "hi"))
    tag_threshold = 0.02
    cfl = 0.5

    left = PrimitiveState(rho=1.0, u=0.0, p=1.0)
    right = PrimitiveState(rho=0.125, u=0.0, p=0.1)
    x_diaphragm = 0.5

    def __init__(self, ncells: int = 128) -> None:
        self.domain_cells = (ncells,)
        super().__init__()

    def initial_condition(self, coords: np.ndarray, time: float = 0.0) -> np.ndarray:
        x = coords[0]
        rho = np.where(x < self.x_diaphragm, self.left.rho, self.right.rho)
        u = np.where(x < self.x_diaphragm, self.left.u, self.right.u)
        p = np.where(x < self.x_diaphragm, self.left.p, self.right.p)
        return self.eos.conservative(self.layout, rho, u[None], p)

    def bc_fill(self, faces, time) -> None:
        """Transmissive (zero-gradient) boundaries at both ends."""
        zero_gradient(faces, 0)

    def exact_solution(self, coords: np.ndarray, time: float) -> Optional[np.ndarray]:
        x = coords[0]
        if time <= 0:
            return self.initial_condition(coords)
        xi = (x - self.x_diaphragm) / time
        rho, u, p = sample(self.left, self.right, xi, self.eos.gamma)
        return self.eos.conservative(self.layout, rho, u[None], p)
