"""CFL-constrained time-step estimation (ComputeDt).

The stable step obeys (Eq. 3 of the paper, generalized to curvilinear
coordinates):  dt <= CFL / max_cells sum_d (|Uhat_d| + a |m_d|) / J.

Every patch computes its local bound; the global step is the minimum over
all ranks, obtained through the communicator's ``ReduceRealMin`` — one of
the two global communication calls in CRoCCo (Sec. III-B).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.backend import ExecutionBackend, LaunchSpec, owners
from repro.numerics import native
from repro.numerics.fluxes import wave_speed
from repro.numerics.state import StateLayout


def local_max_rate(layout: StateLayout, eos, u: np.ndarray, metrics,
                   backend: ExecutionBackend, rank=0):
    """max over this patch's cells of sum_d (|Uhat_d| + a |m_d|)/J; for a
    batch ``u (ncons, B, *grid)`` with one owning rank per member, the
    ``B`` patch rates.

    Each owning rank records one ``ComputeDt`` reduction (``ReduceData``)
    over its members' cells.  The maxima are taken once, by the compiled
    kernel (:mod:`repro.numerics.native`) when this process has it and it
    takes the input (an ideal gas on stored metrics), else by NumPy: the
    same bits either way.
    """
    dim, J = layout.dim, metrics.jacobian()
    compiled = native.kernels()
    rates = compiled and compiled.max_rate(
        u, [metrics.m(d) for d in range(dim)], J, eos)
    if rates is None:
        rho, vel, p = eos.primitives(layout, u)
        a = eos.sound_speed(layout, u, rho, p)
        w = [wave_speed(vel, a, metrics.m(d), J) for d in range(dim)]
        rates = sum(w[1:], w[0]).max(axis=tuple(range(-dim, 0)))
    # accounting is not execution: the reduction each rank's device would
    # have run over its members' cells is recorded with an empty body
    one, npts = u.ndim == dim + 1, math.prod(u.shape[-dim:])
    for r, n in owners(rank, 1 if one else len(rates)).items():
        backend.reduce_data("ComputeDt", None, "max",
                            LaunchSpec("reduction", r), n * npts)
    return float(rates) if one else rates


def compute_dt(
    per_rank_rates: Sequence[float],
    cfl: float,
    comm,
    dt_max: Optional[float] = None,
) -> float:
    """Global dt from per-rank max rates via a simulated MPI reduction.

    ``per_rank_rates[r]`` is the max CFL rate over rank ``r``'s patches
    (0 for ranks with no patches).  Returns CFL / max_rate, capped at
    ``dt_max``.
    """
    if cfl <= 0:
        raise ValueError("cfl must be positive")
    local_dts = [
        (cfl / r) if r > 0 else np.inf for r in per_rank_rates
    ]
    dt = comm.reduce_min(local_dts)
    if dt_max is not None:
        dt = min(dt, dt_max)
    if not np.isfinite(dt):
        raise ValueError("no finite CFL rate found (empty hierarchy?)")
    return float(dt)
