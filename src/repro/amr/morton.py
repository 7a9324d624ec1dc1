"""Z-order (Morton) space-filling curve encoding.

AMReX's default ``DistributionMapping`` strategy orders boxes along a
Z-Morton space-filling curve before splitting them into per-rank chunks of
roughly equal weight; the curve keeps spatially adjacent boxes on nearby
ranks, which keeps most FillBoundary traffic node-local.
"""

from __future__ import annotations

import numpy as np

#: Number of bits of each coordinate that participate in the Morton code.
MORTON_BITS = 21  # 3 * 21 = 63 bits, fits in int64 domain-size up to 2^21 cells


def _part_bits(x: np.ndarray, dim: int) -> np.ndarray:
    """Spread the low MORTON_BITS bits of x so consecutive bits are dim apart."""
    x = x.astype(np.uint64) & np.uint64((1 << MORTON_BITS) - 1)
    if dim == 1:
        return x
    if dim == 2:
        # interleave with one zero between bits (magic-number spreading)
        x = (x | (x << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
        x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
        x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
        x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
        return x
    # dim == 3: two zeros between bits
    x = (x | (x << np.uint64(32))) & np.uint64(0x1F00000000FFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x1F0000FF0000FF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x100F00F00F00F00F)
    x = (x | (x << np.uint64(4))) & np.uint64(0x10C30C30C30C30C3)
    x = (x | (x << np.uint64(2))) & np.uint64(0x1249249249249249)
    return x


def morton_encode(coords: np.ndarray) -> np.ndarray:
    """Morton-encode an (n, dim) array of non-negative integer coordinates.

    Returns an (n,) uint64 array of Z-order keys.  Coordinates must fit in
    :data:`MORTON_BITS` bits.
    """
    coords = np.asarray(coords)
    if coords.ndim == 1:
        coords = coords[None, :]
    n, dim = coords.shape
    if dim not in (1, 2, 3):
        raise ValueError(f"morton_encode supports dim 1..3, got {dim}")
    if coords.min(initial=0) < 0:
        raise ValueError("morton_encode requires non-negative coordinates")
    if coords.max(initial=0) >= (1 << MORTON_BITS):
        raise ValueError(f"coordinates exceed {MORTON_BITS}-bit Morton range")
    code = np.zeros(n, dtype=np.uint64)
    for d in range(dim):
        code |= _part_bits(coords[:, d], dim) << np.uint64(d)
    return code


def morton_order(coords: np.ndarray) -> np.ndarray:
    """Permutation that sorts coordinates along the Z-Morton curve (stable)."""
    return np.argsort(morton_encode(coords), kind="stable")
