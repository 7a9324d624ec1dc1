#!/usr/bin/env python
"""Double Mach reflection with three-level curvilinear AMR (Fig. 2).

Runs the paper's test case — a Mach-10 shock on the 30-degree-ramp
configuration — on a curvilinear (smoothly stretched) grid with dynamic
AMR tracking the shock system, then writes a plotfile and renders an
ASCII density contour.

Usage:  python examples/dmr_amr.py [nx] [t_end]
"""

import sys

import numpy as np

from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.core.diagnostics import sample
from repro.io.plotfile import write_plotfile
from repro.kernels.device import launch_totals


def ascii_contour(rho: np.ndarray, width: int = 96, height: int = 24) -> str:
    """Coarse ASCII rendering of a 2D density field."""
    shades = " .:-=+*#%@"
    nx, ny = rho.shape
    out = []
    lo, hi = rho.min(), rho.max()
    for j in range(height - 1, -1, -1):
        row = []
        for i in range(width):
            v = rho[int(i * nx / width), int(j * ny / height)]
            row.append(shades[int((v - lo) / (hi - lo + 1e-30) * (len(shades) - 1))])
        out.append("".join(row))
    return "\n".join(out)


def main() -> None:
    nx = int(sys.argv[1]) if len(sys.argv) > 1 else 128
    t_end = float(sys.argv[2]) if len(sys.argv) > 2 else 0.05

    case = DoubleMachReflection(ncells=(nx, nx // 4), curvilinear=True)
    config = CroccoConfig(
        version="2.0",          # C++ kernels on the device target + AMR +
                                # curvilinear interpolator
        nranks=6, ranks_per_node=6,
        max_level=2,            # three levels in total, as in Fig. 2
        max_grid_size=32, blocking_factor=8,
        regrid_int=4,
    )
    sim = Crocco(case, config)
    sim.initialize()
    print(f"hierarchy: {sim.finest_level + 1} levels, "
          f"AMR savings {sim.amr_savings():.1%} "
          f"(paper quotes 89-94% at production scale)")

    while sim.time < t_end:
        sim.step()
        if sim.step_count % 20 == 0:
            rec = sample(sim)
            print(f"  step {sim.step_count:4d}  t={sim.time:.4f}  "
                  f"rho in [{rec.rho_min:.2f}, {rec.rho_max:.2f}]  "
                  f"fine boxes: {len(sim.box_arrays[sim.finest_level])}")

    pf = write_plotfile("plt_dmr", sim)
    print(f"\nwrote plotfile {pf}")
    gpu0 = sim.devices[0]
    print(f"simulated GPU: {gpu0.table.total()} kernel launches, "
          f"high-water {gpu0.high_water / 1e6:.1f} MB")
    print("simulated V100 kernel time (rank 0, whole run):")
    for name, tot in sorted(launch_totals([gpu0]).items(),
                            key=lambda kv: -kv[1]["seconds"]):
        print(f"  {name:<10} {tot['seconds'] * 1e3:8.2f} ms over "
              f"{tot['launches']:5d} launches")
    led = sim.comm.ledger
    print("communication by kind (count, bytes):")
    for kind, (cnt, vol) in sorted(led.by_kind().items()):
        print(f"  {kind:<14} {cnt:8d}  {vol / 1e6:10.2f} MB")

    rho = sim.state[0].fab(0).valid()[0]
    # assemble level-0 density across patches
    dom = sim.geoms[0].domain
    full = np.zeros(dom.shape()[:2])
    for i, fab in sim.state[0]:
        b = fab.box
        sl = tuple(slice(b.lo[d], b.hi[d] + 1) for d in range(2))
        full[sl] = fab.valid()[0]
    print("\ndensity contour (x right, y up; dark = dense):")
    print(ascii_contour(full))


if __name__ == "__main__":
    main()
