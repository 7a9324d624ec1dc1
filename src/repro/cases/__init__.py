"""Flow cases: problem definitions the CRoCCo driver runs.

- :mod:`repro.cases.base` — the Case interface (domain, mapping, initial
  condition, boundary conditions, tagging).
- :mod:`repro.cases.dmr` — the double Mach reflection of Woodward &
  Colella, the paper's test problem (Sec. V-B), in both the classic
  Cartesian formulation and a curvilinear ramp-fitted formulation.
- :mod:`repro.cases.shocktube` — the Sod shock tube (validation against
  the exact Riemann solution).
- :mod:`repro.cases.vortex` — isentropic vortex advection (smooth
  convergence testing).
- :mod:`repro.cases.reacting` — two-species Arrhenius ignition (the w_s
  source of Eq. 1).
- :mod:`repro.cases.grids` — curvilinear mapping builders (uniform,
  stretched, ramp).
"""

from repro.cases.base import Case
from repro.cases.dmr import DoubleMachReflection
from repro.cases.reacting import IgnitionFront
from repro.cases.shocktube import SodShockTube
from repro.cases.vortex import IsentropicVortex

#: deck case name -> (case class, legal lengths of the deck's cell
#: counts, constructor keywords taken from the like-named run options)
CASES = {
    "sod": (SodShockTube, (1,), {}),
    "vortex": (IsentropicVortex, (1,), {}),
    "dmr": (DoubleMachReflection, (2, 3), {"curvilinear": "curvilinear"}),
    "ignition": (IgnitionFront, (1,), {}),
}

__all__ = [
    "CASES",
    "Case",
    "DoubleMachReflection",
    "IgnitionFront",
    "SodShockTube",
    "IsentropicVortex",
]
