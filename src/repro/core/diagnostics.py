"""Run-time diagnostics: conserved integrals, extrema, shock tracking.

Production CFD codes log these every few steps; CRoCCo's validation
procedure (Sec. IV-C: "regular validation runs") relies on exactly such
time series.  The DMR shock tracker also gives a *physics* validation:
the incident shock's trace along any y = const line must move at
``M / sin(beta)`` (10 / sin 60 deg for the paper's case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass
class StepRecord:
    """One sampled diagnostic record."""

    step: int
    time: float
    mass: float
    momentum: tuple
    energy: float
    rho_min: float
    rho_max: float
    p_min: float
    p_max: float


class DiagnosticsLog:
    """Accumulates conserved-quantity time series from a Crocco run."""

    def __init__(self, crocco) -> None:
        self.sim = crocco
        self.records: List[StepRecord] = []

    def sample(self) -> StepRecord:
        sim = self.sim
        lay = sim.case.layout
        eos = sim.case.eos
        mass = 0.0
        mom = np.zeros(lay.dim)
        energy = 0.0
        rho_min, rho_max = np.inf, -np.inf
        p_min, p_max = np.inf, -np.inf
        volumes = sim.cell_volumes(0)
        for i, fab in sim.state[0]:
            J = volumes[i]
            u = fab.valid()
            rho = lay.density(u)
            p = eos.pressure(lay, u)
            mass += float((rho * J).sum())
            for d in range(lay.dim):
                mom[d] += float((u[lay.mom(d)] * J).sum())
            energy += float((u[lay.energy] * J).sum())
            rho_min = min(rho_min, float(rho.min()))
            rho_max = max(rho_max, float(rho.max()))
            p_min = min(p_min, float(p.min()))
            p_max = max(p_max, float(p.max()))
        rec = StepRecord(sim.step_count, sim.time, mass, tuple(mom), energy,
                         rho_min, rho_max, p_min, p_max)
        self.records.append(rec)
        return rec

    def series(self, attr: str) -> np.ndarray:
        return np.array([getattr(r, attr) for r in self.records])

    def drift(self, attr: str) -> float:
        """Relative drift of a conserved quantity over the log."""
        s = self.series(attr)
        if len(s) < 2 or s[0] == 0:
            return 0.0
        return float(abs(s[-1] - s[0]) / abs(s[0]))


def shock_position(crocco, y_frac: float = 0.9, comp: int = 0) -> float:
    """x-location of the strongest gradient along a y = const line.

    For the DMR, sampling near the top boundary (before the reflected
    system arrives) isolates the incident shock, whose trace speed should
    equal M / sin(beta) = 10 / sin(60 deg).
    """
    lay = crocco.case.layout
    best_x, best_g = None, -1.0
    for i, fab in crocco.state[0]:
        coords = crocco.coords[0].fab(i).valid()
        u = fab.valid()
        # pick the j row closest to the requested height
        y = coords[1]
        j = int(np.argmin(np.abs(y[0, :] - y_frac * crocco.case.prob_extent[1])))
        line = u[comp][:, j] if u.ndim == 3 else u[comp][:, j, u.shape[3] // 2]
        x = coords[0][:, j] if coords.ndim == 3 else coords[0][:, j, 0]
        if len(line) < 3:
            continue
        g = np.abs(np.diff(line))
        k = int(np.argmax(g))
        if g[k] > best_g:
            best_g = float(g[k])
            best_x = float(0.5 * (x[k] + x[k + 1]))
    if best_x is None:
        raise ValueError("no shock found on the sampling line")
    return best_x


def measure_shock_speed(crocco, nsteps: int = 20, y_frac: float = 0.9) -> float:
    """Advance the run and return the measured shock-trace speed dx/dt."""
    x0, t0 = shock_position(crocco, y_frac), crocco.time
    for _ in range(nsteps):
        crocco.step()
    x1, t1 = shock_position(crocco, y_frac), crocco.time
    if t1 == t0:
        raise ValueError("no time elapsed")
    return (x1 - x0) / (t1 - t0)
