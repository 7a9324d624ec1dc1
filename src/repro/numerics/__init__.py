"""High-fidelity compressible-flow numerics (the CRoCCo kernels' math).

Implements the schemes of Sec. II-A of the paper:

- conservative compressible Navier-Stokes (optionally multi-species) via
  :mod:`repro.numerics.eos` and :mod:`repro.numerics.state`,
- bandwidth-optimized symmetric WENO (WENO-SYMBO) convective flux
  reconstruction (:mod:`repro.numerics.weno`,
  :mod:`repro.numerics.fluxes`),
- 4th-order central viscous fluxes (:mod:`repro.numerics.viscous`),
- Williamson low-storage 3rd-order Runge-Kutta time integration
  (:mod:`repro.numerics.rk3`),
- CFL-constrained time-step estimation (:mod:`repro.numerics.cfl`),
- generalized curvilinear grid metrics, 27 stored components as in the
  paper (:mod:`repro.numerics.metrics`),
- Arrhenius chemistry sources, the w_s of Eq. 1
  (:mod:`repro.numerics.chemistry`).
"""

from repro.numerics.state import StateLayout
from repro.numerics.eos import IdealGasEOS, Species, MixtureEOS

__all__ = ["StateLayout", "IdealGasEOS", "Species", "MixtureEOS"]
