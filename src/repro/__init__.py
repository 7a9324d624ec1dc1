"""CRoCCo v2.0 reproduction.

A pure-Python reproduction of *"Porting a Computational Fluid Dynamics
Code with AMR to Large-scale GPU Platforms"* (Davis, Shafner, Nichols,
Grube, Martin, Bhatele — IPPS 2023): a compressible curvilinear
WENO-SYMBO / RK3 solver on a block-structured AMR substrate
(AMReX-equivalent), with Fortran/C++ kernel orderings on host/device
execution targets, a simulated MPI layer, and Summit machine models that regenerate the paper's
evaluation figures.

Quick start::

    from repro import Crocco, CroccoConfig, SodShockTube

    sim = Crocco(SodShockTube(128), CroccoConfig(version="2.0"))
    sim.initialize()
    sim.run(100)

See README.md for the architecture overview, DESIGN.md for the system
inventory, and EXPERIMENTS.md for paper-vs-measured results.
"""

from repro.cases import DoubleMachReflection, IsentropicVortex, SodShockTube
from repro.core import Crocco, CroccoConfig, VERSIONS, compare_states

__version__ = "2.0.0"

__all__ = [
    "Crocco",
    "CroccoConfig",
    "VERSIONS",
    "compare_states",
    "SodShockTube",
    "IsentropicVortex",
    "DoubleMachReflection",
    "__version__",
]
