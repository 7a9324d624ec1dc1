#!/usr/bin/env python
"""Grid-convergence study on the isentropic vortex.

Runs the smooth-vortex case at a refinement sequence and reports the
observed order of accuracy of the WENO-SYMBO / RK3 solver — the formal
verification every high-order CFD release ships with.

Usage:  python tools/convergence.py [base_n] [t_end]

``base_n`` (default 16) is the coarsest resolution, an integer >= 4;
``t_end`` (default 0.5) a finite end time > 0.  A bad value is a usage
error (exit 2).
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cases.vortex import IsentropicVortex  # noqa: E402
from repro.core.crocco import Crocco, CroccoConfig  # noqa: E402
from repro.core.validation import error_norms, observed_order  # noqa: E402


def base_cells(text: str) -> int:
    """An integer >= 4 (a non-integer is argparse's "invalid value")."""
    n = int(text)
    if n < 4:
        raise argparse.ArgumentTypeError(f"expected an integer >= 4, got {n}")
    return n


def end_time(text: str) -> float:
    """A finite number > 0."""
    t = float(text)
    if not (math.isfinite(t) and t > 0):
        raise argparse.ArgumentTypeError(f"expected a finite time > 0, got {text}")
    return t


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Observed order of accuracy on the isentropic vortex.")
    parser.add_argument("base_n", nargs="?", type=base_cells, default=16,
                        help="coarsest resolution (default 16)")
    parser.add_argument("t_end", nargs="?", type=end_time, default=0.5,
                        help="end time (default 0.5)")
    args = parser.parse_args(argv)
    base, t_end = args.base_n, args.t_end
    resolutions = [base, 2 * base, 4 * base]
    errs = {"L1": [], "L2": [], "Linf": []}
    for n in resolutions:
        case = IsentropicVortex(ncells=n)
        # boxes of at most 64 cells, cut where both n and 64 allow
        sim = Crocco(case, CroccoConfig(version="1.1",
                                        max_grid_size=min(64, n),
                                        blocking_factor=math.gcd(n, 8)))
        sim.initialize()
        while sim.time < t_end:
            sim.step()
        norms = error_norms(sim)["rho"]
        for k in errs:
            errs[k].append(norms[k])
        print(f"n={n:4d}  steps={sim.step_count:4d}  "
              + "  ".join(f"{k}={norms[k]:.3e}" for k in ("L1", "L2", "Linf")))
    for k in ("L1", "L2", "Linf"):
        orders = observed_order(errs[k])
        print(f"observed order ({k}): "
              + ", ".join(f"{o:.2f}" for o in orders))
    return 0


if __name__ == "__main__":
    sys.exit(main())
