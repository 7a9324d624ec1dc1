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
from repro.numerics.fluxes import wave_speed
from repro.numerics.state import StateLayout


def local_max_rate(layout: StateLayout, eos, u: np.ndarray, metrics,
                   backend: ExecutionBackend, rank=0):
    """max over this patch's cells of sum_d (|Uhat_d| + a |m_d|)/J.

    The final max is an execution-backend ``ReduceData``: a NumPy
    reduction on the host target, a recorded ``ComputeDt`` device
    reduction on the device target — bitwise identical either way.

    A batch ``u (ncons, B, *grid)`` with one owning rank per member
    returns the ``B`` patch rates; each owning rank records one
    reduction over its own members' cells.
    """
    rho, vel, p = eos.primitives(layout, u)
    a = eos.sound_speed(layout, u, rho, p)
    J = metrics.jacobian()
    total = None
    for d in range(layout.dim):
        w = wave_speed(vel, a, metrics.m(d), J)
        total = w if total is None else total + w
    if total.ndim == layout.dim:
        return backend.reduce_data("ComputeDt", total, "max",
                                   LaunchSpec("reduction", rank))
    # accounting is not execution: the patch maxima are taken once, on the
    # stack; the reduction each rank's device would have run over its
    # members' cells is recorded with an empty body
    npts = math.prod(total.shape[1:])
    for r, n in owners(rank, len(total)).items():
        backend.reduce_data("ComputeDt", None, "max",
                            LaunchSpec("reduction", r), n * npts)
    return total.max(axis=tuple(range(-layout.dim, 0)))


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
