"""The CRoCCo version matrix (Sec. V-C of the paper).

=======  ========  ====  ======  ==========================
Version  Ordering  AMR   Target  Interpolator
=======  ========  ====  ======  ==========================
1.0      fortran   off   host    --
1.1      cpp       off   host    --
1.2      cpp       on    host    custom curvilinear
2.0      cpp       on    device  custom curvilinear
2.1      cpp       on    device  AMReX trilinear (built-in)
=======  ========  ====  ======  ==========================

A version fixes two independent facts about a run: the *arithmetic
ordering* of its kernels (Fortran vs. the translated C++, the source of
the paper's 1e-7 drift) and the default *execution target* its launches
run on (:mod:`repro.backend`; ``backend.target`` overrides it).  2.0 is
the same C++ kernels as 1.2 moved onto the GPU through the launch API.

2.1 is the ParallelCopy ablation: swapping the custom curvilinear
interpolator for the built-in trilinear one removes the global
communication inside FillPatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.errors import ConfigError


@dataclass(frozen=True)
class VersionConfig:
    """Capability switches of one CRoCCo version."""

    name: str
    ordering: str  # arithmetic ordering of the kernels: fortran | cpp
    target: str  # default execution target: host | device
    amr: bool
    interpolator: str  # "curvilinear" | "trilinear" | "conservative" | "weno"

    @property
    def on_gpu(self) -> bool:
        """Whether the paper ran this version on Summit's GPUs (what the
        performance and machine models price)."""
        return self.target == "device"

    @property
    def uses_global_parallelcopy(self) -> bool:
        """The custom curvilinear interpolator gathers coordinates globally."""
        return self.amr and self.interpolator == "curvilinear"


VERSIONS: Dict[str, VersionConfig] = {
    "1.0": VersionConfig("1.0", "fortran", "host", amr=False, interpolator="curvilinear"),
    "1.1": VersionConfig("1.1", "cpp", "host", amr=False, interpolator="curvilinear"),
    "1.2": VersionConfig("1.2", "cpp", "host", amr=True, interpolator="curvilinear"),
    "2.0": VersionConfig("2.0", "cpp", "device", amr=True, interpolator="curvilinear"),
    "2.1": VersionConfig("2.1", "cpp", "device", amr=True, interpolator="trilinear"),
}


def get_version(name: str) -> VersionConfig:
    if name not in VERSIONS:
        raise ConfigError(
            f"unknown CRoCCo version {name!r}; options {sorted(VERSIONS)}")
    return VERSIONS[name]
