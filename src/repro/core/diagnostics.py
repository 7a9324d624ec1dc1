"""Run-time diagnostics: level 0's conserved integrals and density range.

Production CFD codes log these every few steps; CRoCCo's validation
procedure (Sec. IV-C: "regular validation runs") relies on exactly such
time series.  The CLI's progress line is one :func:`sample` every
``run.report_every`` steps.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def sample(sim) -> StepRecord:
    """Integrals of ``u J`` over each level-0 box's valid cells, and the
    mixture density's extrema, reduced per rank through the communicator's
    MIN / MAX trees (as ``ReduceRealMin`` / ``ReduceRealMax`` do)."""
    lay, state, comm = sim.case.layout, sim.state[0], sim.comm
    volumes = {}
    for batch in sim.batches[0]:
        # on a Cartesian level one cell's J, which broadcasts
        J = batch.metrics.interior(sim.ng).jacobian()
        volumes.update((i, J[b]) for b, i in enumerate(batch.ids))
    mass, energy, mom = 0.0, 0.0, np.zeros(lay.dim)
    lo, hi = [np.inf] * comm.nranks, [-np.inf] * comm.nranks
    for i, fab in state:
        u, J, r = fab.valid(), volumes[i], state.dm[i]
        rho = lay.density(u)
        mass += float((rho * J).sum())
        for d in range(lay.dim):
            mom[d] += float((u[lay.mom(d)] * J).sum())
        energy += float((u[lay.energy] * J).sum())
        lo[r] = min(lo[r], float(rho.min()))
        hi[r] = max(hi[r], float(rho.max()))
    return StepRecord(sim.step_count, sim.time, mass, tuple(mom), energy,
                      comm.reduce_min(lo), comm.reduce_max(hi))
