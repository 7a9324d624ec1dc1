"""Central finite-difference stencils.

CRoCCo computes viscous fluxes and grid metrics with 4th-order-accurate
central differences; this module holds the coefficient tables and a
vectorized apply helper.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

#: central first-derivative coefficients {order: (offsets, coeffs)}
FIRST_DERIVATIVE: Dict[int, Tuple[Tuple[int, ...], Tuple[float, ...]]] = {
    2: ((-1, 1), (-0.5, 0.5)),
    4: ((-2, -1, 1, 2), (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)),
    6: (
        (-3, -2, -1, 1, 2, 3),
        (-1.0 / 60.0, 9.0 / 60.0, -45.0 / 60.0, 45.0 / 60.0, -9.0 / 60.0, 1.0 / 60.0),
    ),
}

#: central second-derivative coefficients
SECOND_DERIVATIVE: Dict[int, Tuple[Tuple[int, ...], Tuple[float, ...]]] = {
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    4: (
        (-2, -1, 0, 1, 2),
        (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0),
    ),
}


def central_derivative(
    v: np.ndarray, axis: int, spacing: float = 1.0, order: int = 4,
    derivative: int = 1,
) -> np.ndarray:
    """Apply a central difference along ``axis``.

    The result is shorter by twice the stencil's radius along that axis —
    the caller supplies ghost data.  ``spacing`` is the uniform grid spacing
    (for computational-space metrics it is 1).
    """
    table = FIRST_DERIVATIVE if derivative == 1 else SECOND_DERIVATIVE
    if order not in table:
        raise ValueError(f"unsupported order {order} for derivative {derivative}")
    offsets, coeffs = table[order]
    rad = max(abs(o) for o in offsets)
    v = np.moveaxis(v, axis, -1)
    n = v.shape[-1]
    if n < 2 * rad + 1:
        raise ValueError("array too short for the stencil")
    out = np.zeros(v.shape[:-1] + (n - 2 * rad,), dtype=np.float64)
    for o, c in zip(offsets, coeffs):
        out += c * v[..., rad + o: n - rad + o]
    out /= spacing**derivative
    return np.moveaxis(out, -1, axis)
