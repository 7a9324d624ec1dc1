"""Positivity safeguards for strong-shock robustness.

High-Mach production solvers protect against transient negative density or
internal energy produced by high-order reconstruction near severe features
(WENO is not positivity-preserving).  The safeguard clamps offending cells
to conservative floors and counts interventions — a healthy run applies
zero or a vanishing number of them, so the counter doubles as a solver
health metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.numerics.state import StateLayout


@dataclass
class PositivityGuard:
    """Floor-based density/internal-energy protection."""

    rho_floor: float = 1e-8
    e_int_floor: float = 1e-10
    #: interventions per step index (for health reporting)
    interventions: Dict[int, int] = field(default_factory=dict)

    def apply(self, layout: StateLayout, eos, u: np.ndarray,
              step: int = 0) -> int:
        """Clamp a conservative array in place; returns cells touched."""
        touched = 0
        rho = layout.density(u)
        bad_rho = rho < self.rho_floor
        if bad_rho.any():
            touched += int(bad_rho.sum())
            # species fractions are meaningless in a floored cell (they may
            # be negative): reset to an even split at the floor density
            even = self.rho_floor / layout.nspecies
            u[layout.rho_s] = np.where(bad_rho[None], even, u[layout.rho_s])
            # kill momentum in floored cells (a dead cell, not a jet)
            u[layout.mom_slice] = np.where(bad_rho[None], 0.0, u[layout.mom_slice])
        e_int = u[layout.energy] - layout.kinetic_energy(u)
        bad_e = e_int < self.e_int_floor
        if bad_e.any():
            touched += int(bad_e.sum())
            u[layout.energy] = np.where(
                bad_e, layout.kinetic_energy(u) + self.e_int_floor,
                u[layout.energy],
            )
        if touched:
            self.interventions[step] = self.interventions.get(step, 0) + touched
        return touched

    @property
    def total_interventions(self) -> int:
        return sum(self.interventions.values())


def attach_guard(crocco, guard: PositivityGuard | None = None) -> PositivityGuard:
    """Wrap a Crocco driver's RK update with the positivity guard.

    Returns the guard so callers can inspect intervention counts.
    """
    g = guard if guard is not None else PositivityGuard()
    # expose the guard on the driver so the recorder exports its counts
    # (safeguards.positivity_cells) and the watchdog can spot spikes
    crocco.guard = g
    kernels = crocco.kernels
    orig_update = kernels.update

    def guarded_update(u_valid, du, rhs, dt, stage, rank=0):
        orig_update(u_valid, du, rhs, dt, stage, rank)
        g.apply(crocco.case.layout, crocco.case.eos, u_valid,
                step=crocco.step_count)

    kernels.update = guarded_update
    return g
