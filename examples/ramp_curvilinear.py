#!/usr/bin/env python
"""Curvilinear compression-ramp grid: metrics, GCL, and freestream test.

Demonstrates the curvilinear machinery the paper added to AMReX: a
30-degree compression-corner grid (the canonical hypersonic geometry the
curvilinear solver exists for), its stored metrics (``m`` and ``J``) and
grid quality, the geometric-conservation-law residual, and freestream
preservation of the WENO flux kernels on that grid.

Usage:  python examples/ramp_curvilinear.py
"""

import numpy as np

from repro.cases.grids import compression_ramp_mapping, tanh_cluster_mapping
from repro.numerics.eos import IdealGasEOS
from repro.numerics.fluxes import ConvectiveFlux
from repro.numerics.metrics import CurvilinearMetrics, grid_quality
from repro.numerics.state import StateLayout


def main() -> None:
    ng = 4
    nx, ny = 96, 48
    mapping = compression_ramp_mapping((2.0, 1.0), angle_deg=30.0,
                                       corner=0.4, smoothing=0.04)

    # cell-center coordinates including ghost cells
    s = np.stack(np.meshgrid(
        (np.arange(-ng, nx + ng) + 0.5) / nx,
        (np.arange(-ng, ny + ng) + 0.5) / ny,
        indexing="ij",
    ))
    coords = mapping(s)
    print(f"30-degree ramp grid: {nx}x{ny} cells")
    print(f"  wall height at outflow: {coords[1][-1 - ng, ng]:.3f} "
          f"(tan(30) ramp from x = 0.8)")

    met = CurvilinearMetrics.from_coordinates(coords)
    print(f"  stored metric components: {len(met.arr)} per cell "
          f"(dim^2 + 1: m, then J)")
    print("  the paper's 3D metrics MultiFab: 27 (9 first + 18 second "
          "derivatives)")

    q = grid_quality(coords, interior=ng)
    print("  grid quality (first and second derivatives of the coordinates):")
    for k, v in q.items():
        print(f"    {k:<18} {v:.3f}")
    print(f"  Jacobian range: [{met.jacobian().min():.2e}, "
          f"{met.jacobian().max():.2e}]")
    gcl = np.abs(met.gcl_residual()[:, ng:-ng, ng:-ng]).max()
    print(f"  GCL residual (metric identities): {gcl:.2e}")

    # freestream preservation: a uniform flow must stay uniform
    lay = StateLayout(nspecies=1, dim=2)
    eos = IdealGasEOS()
    shape = coords.shape[1:]
    u = eos.conservative(
        lay,
        np.ones(shape),
        np.stack([np.full(shape, 2.0), np.full(shape, 0.0)]),
        np.ones(shape),
    )
    op = ConvectiveFlux()
    resid = np.zeros((lay.ncons, nx, ny))
    for d in range(2):
        resid += op.divergence(lay, eos, u, met, d, ng)
    print(f"  freestream residual |dU/dt|: {np.abs(resid).max():.2e} "
          f"(discrete GCL error; exact scheme would give 0)")

    # contrast with a wall-clustered grid
    met2 = CurvilinearMetrics.from_coordinates(
        tanh_cluster_mapping((2.0, 1.0), beta=2.5)(s))
    jr = met2.jacobian()[ng:-ng, ng:-ng]
    print(f"\ntanh wall-clustered grid: cell-size ratio "
          f"{jr.max() / jr.min():.1f}:1 across the boundary layer")


if __name__ == "__main__":
    main()
