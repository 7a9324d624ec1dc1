"""Exact oblique-shock relations (theta-beta-Mach).

For supersonic flow at Mach M deflected by a ramp of angle theta, an
attached oblique shock forms at wave angle beta satisfying

    tan(theta) = 2 cot(beta) (M^2 sin^2(beta) - 1)
                 / (M^2 (gamma + cos 2 beta) + 2).

Used to validate the curvilinear compression-ramp case against theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def theta_from_beta(beta: float, mach: float, gamma: float = 1.4) -> float:
    """Flow deflection angle for a given wave angle (radians)."""
    m2s2 = mach**2 * math.sin(beta) ** 2
    num = 2.0 / math.tan(beta) * (m2s2 - 1.0)
    den = mach**2 * (gamma + math.cos(2 * beta)) + 2.0
    return math.atan2(num, den)


def beta_from_theta(theta: float, mach: float, gamma: float = 1.4,
                    weak: bool = True) -> float:
    """Wave angle (radians) for a given deflection (weak solution by default).

    Raises ValueError for detached shocks (theta beyond theta_max).
    """
    # imported here: scipy costs ~0.5 s at import and only this root-find
    # (the ramp case) needs it
    from scipy.optimize import brentq

    if mach <= 1.0:
        raise ValueError("oblique shocks require supersonic flow")
    beta_min = math.asin(1.0 / mach) + 1e-12
    beta_max = math.pi / 2 - 1e-12
    # locate theta_max to split weak/strong branches
    betas = np.linspace(beta_min, beta_max, 2000)
    thetas = np.array([theta_from_beta(b, mach, gamma) for b in betas])
    k_max = int(np.argmax(thetas))
    if theta > thetas[k_max]:
        raise ValueError(
            f"deflection {math.degrees(theta):.1f} deg exceeds the attached-"
            f"shock limit {math.degrees(thetas[k_max]):.1f} deg at M={mach}"
        )
    if theta <= 0:
        raise ValueError("deflection must be positive")
    if weak:
        lo, hi = beta_min, betas[k_max]
    else:
        lo, hi = betas[k_max], beta_max
    return float(brentq(lambda b: theta_from_beta(b, mach, gamma) - theta,
                        lo, hi, xtol=1e-12))


@dataclass(frozen=True)
class ObliqueShock:
    """Exact jump across an attached oblique shock."""

    mach1: float
    theta: float  # deflection (radians)
    gamma: float = 1.4

    @property
    def beta(self) -> float:
        """Wave angle (radians, weak branch)."""
        return beta_from_theta(self.theta, self.mach1, self.gamma)

    @property
    def mn1(self) -> float:
        """Upstream normal Mach number."""
        return self.mach1 * math.sin(self.beta)

    @property
    def pressure_ratio(self) -> float:
        """p2 / p1 across the shock."""
        g = self.gamma
        return (2 * g * self.mn1**2 - (g - 1)) / (g + 1)

    @property
    def density_ratio(self) -> float:
        """rho2 / rho1 across the shock."""
        g = self.gamma
        return (g + 1) * self.mn1**2 / ((g - 1) * self.mn1**2 + 2)

    @property
    def temperature_ratio(self) -> float:
        """T2 / T1 across the shock."""
        return self.pressure_ratio / self.density_ratio

    @property
    def mach2(self) -> float:
        """Downstream Mach number (weak-shock branch)."""
        g = self.gamma
        mn2 = math.sqrt((self.mn1**2 + 2 / (g - 1))
                        / (2 * g / (g - 1) * self.mn1**2 - 1))
        return mn2 / math.sin(self.beta - self.theta)
