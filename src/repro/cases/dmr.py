"""The double Mach reflection (DMR) of Woodward & Colella (1984).

The paper's test case (Sec. V-B): an unsteady planar Mach-10 shock
incident on a 30-degree inviscid compression ramp.  In the standard
computational formulation the ramp wall is the x-axis and the incident
shock is inclined at 60 degrees, passing through (1/6, 0) at t = 0:

- pre-shock (quiescent):   rho = 1.4, u = v = 0, p = 1  (so a = 1)
- post-shock (Mach 10 jump): rho = 8, |u| = 8.25 along the shock normal,
  p = 116.5

Boundary conditions: supersonic post-shock inflow at x = 0; reflecting
wall on y = 0 for x >= 1/6 (post-shock values before the ramp start);
time-exact shock states on the top boundary; zero-gradient outflow at
x = 4.  The problem is solved in 2D or 3D (spanwise-periodic, statistically
homogeneous along z — the paper's setup).

Following the paper, general curvilinear coordinates can be enabled even
though the problem does not require them ("Although unnecessary for this
problem, we use general curvilinear coordinates"): a smooth sinusoidal
stretching exercises the stored-coordinate metrics, the curvilinear
interpolator, and its global ParallelCopy.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.cases.base import Case, zero_gradient
from repro.cases.grids import stretched_mapping
from repro.cases.riemann import PrimitiveState, normal_shock_jump

#: shock angle from the x-axis (the 30-degree ramp in the shock frame)
SHOCK_ANGLE_DEG = 60.0
#: incident shock Mach number
SHOCK_MACH = 10.0
#: x-intercept of the shock on the wall at t = 0
X0 = 1.0 / 6.0


class DoubleMachReflection(Case):
    """DMR on [0, 4] x [0, 1] (x [0, Lz]), 2D or 3D."""

    name = "dmr"
    tag_threshold = 0.3
    cfl = 0.5
    bc_faces = ((0, "lo"), (0, "hi"), (1, "lo"), (1, "hi"))

    def __init__(
        self,
        ncells: Tuple[int, ...] = (128, 32),
        curvilinear: bool = False,
        stretch: float = 0.12,
    ) -> None:
        dim = len(ncells)
        if dim not in (2, 3):
            raise ValueError("DMR runs in 2D or 3D")
        self.domain_cells = tuple(ncells)
        self.prob_extent = (4.0, 1.0) if dim == 2 else (4.0, 1.0, 0.25)
        self.periodic = (False, False) if dim == 2 else (False, False, True)
        self.curvilinear = curvilinear
        self._mapping = (
            stretched_mapping(self.prob_extent, amplitude=stretch)
            if curvilinear
            else None
        )
        super().__init__()

        g = self.eos.gamma
        self.pre = PrimitiveState(rho=g, u=0.0, p=1.0)  # a = 1
        post = normal_shock_jump(SHOCK_MACH, self.pre, g)
        ang = np.radians(SHOCK_ANGLE_DEG)
        self.post = post
        #: lab-frame post-shock velocity components
        self.post_vel = (post.u * np.sin(ang), -post.u * np.cos(ang))
        #: horizontal speed of the shock trace along a y = const line
        self.shock_trace_speed = SHOCK_MACH / np.sin(ang)
        self._tan = np.tan(ang)
        # the post- and pre-shock states, (ncons, 2), packed once (same bits)
        pick = np.array([True, False])
        vel = np.zeros((self.dim, 2))
        vel[0] = np.where(pick, self.post_vel[0], 0.0)
        vel[1] = np.where(pick, self.post_vel[1], 0.0)
        self._pair = self.eos.conservative(
            self.layout, np.where(pick, post.rho, self.pre.rho), vel,
            np.where(pick, post.p, self.pre.p))

    # -- geometry -----------------------------------------------------------
    def mapping(self, s: np.ndarray) -> np.ndarray:
        if self._mapping is not None:
            return self._mapping(s)
        return super().mapping(s)

    def shock_x(self, y: np.ndarray, time: float) -> np.ndarray:
        """x-position of the incident shock at height y and time t."""
        return X0 + y / self._tan + self.shock_trace_speed * time

    # -- states --------------------------------------------------------------
    def _states(self, post: np.ndarray) -> np.ndarray:
        """Conservative post-shock (where ``post``) or pre-shock states."""
        post_u, pre_u = (c.reshape((-1,) + (1,) * post.ndim)
                         for c in self._pair.T)
        return np.where(post[None], post_u, pre_u)

    def initial_condition(self, coords: np.ndarray, time: float = 0.0) -> np.ndarray:
        return self._states(coords[0] < self.shock_x(coords[1], time))

    # -- boundary conditions ---------------------------------------------
    def bc_fill(self, faces, time) -> None:
        """The four faces in order (each reads what the ones before wrote):
        post-shock inflow at x-lo, zero-gradient outflow at x-hi, the wall
        (post-shock values before X0) at y-lo, the exact moving-shock states
        at y-hi."""
        u = faces.data
        inflow = faces[0, "lo"]
        if inflow is not None:
            inflow.ghost.put(u, self._states(np.ones(inflow.ghost.size, bool)))
        zero_gradient(faces, 0, ("hi",))
        wall = faces[1, "lo"]
        if wall is not None:
            refl = wall.mirror.take(u)
            refl[self.layout.mom(1)] *= -1.0  # flip wall-normal momentum
            post = faces.x(wall) < X0
            refl[:, post] = self._states(np.ones(np.count_nonzero(post), bool))
            wall.ghost.put(u, refl)
        top = faces[1, "hi"]
        if top is not None:
            x = faces.x(top)
            top.ghost.put(u, self._states(
                x < self.shock_x(np.full_like(x, self.prob_extent[1]), time)))
