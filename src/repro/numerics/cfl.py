"""CFL-constrained time-step estimation (ComputeDt).

The stable step obeys (Eq. 3 of the paper, generalized to curvilinear
coordinates):  dt <= CFL / max_cells sum_d (|Uhat_d| + a |m_d|) / J.

Every patch computes its local bound; the global step is the minimum over
all ranks, obtained through the communicator's ``ReduceRealMin`` — one of
the two global communication calls in CRoCCo (Sec. III-B).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.numerics.fluxes import wave_speed
from repro.numerics.state import StateLayout


def local_max_rate(layout: StateLayout, eos, u: np.ndarray, metrics):
    """max over this patch's cells of sum_d (|Uhat_d| + a |m_d|)/J; for a
    batch ``u (ncons, B, *grid)``, the ``B`` patch rates.

    The NumPy reference: a ComputeDt launch
    (:meth:`~repro.kernels.api.KernelSet.max_rate`) runs the compiled rate
    of :mod:`repro.numerics.native` when this process has it and it takes
    the input (an ideal gas on stored metrics), else this — the same bits
    either way.
    """
    dim, J = layout.dim, metrics.jacobian()
    rho, vel, p = eos.primitives(layout, u)
    a = eos.sound_speed(layout, u, rho, p)
    w = [wave_speed(vel, a, metrics.m(d), J) for d in range(dim)]
    rates = sum(w[1:], w[0]).max(axis=tuple(range(-dim, 0)))
    return float(rates) if u.ndim == dim + 1 else rates


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
