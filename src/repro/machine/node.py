"""IBM POWER9 CPU model for the CRoCCo kernels.

The paper runs the Fortran (CRoCCo 1.0) and C++ (1.1+) kernels on one
22-core POWER9 per MPI task group.  We model the CPU side with a sustained
per-socket flop rate for these stencil-heavy, bandwidth-sensitive kernels,
plus the paper's headline translation result: the C++ kernels are a
consistent ~1.2x slower than the Fortran ones on POWER9 (Sec. VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels.counts import KernelBudget

#: the paper's observed C++-over-Fortran slowdown on POWER9
CPP_SLOWDOWN = 1.2


@dataclass(frozen=True)
class Power9Model:
    """One 22-core POWER9 socket running the CRoCCo kernels."""

    cores: int = 22
    #: sustained DP flop/s of the full socket on the CRoCCo stencil kernels
    #: (bandwidth-limited; far below the ~500 GF/s peak)
    sustained_flops: float = 2.1e10
    #: per-core sustained rate when fewer ranks than cores are used
    cpp_slowdown: float = CPP_SLOWDOWN

    def kernel_time(self, budget: KernelBudget, npoints: int,
                    lang: str = "cpp", cores: int | None = None) -> float:
        """Wall time of one kernel over ``npoints`` points on this socket.

        ``lang`` is ``fortran`` or ``cpp``; the C++ translation costs the
        paper's observed 1.2x.  ``cores`` restricts to a subset (per-rank
        time when each MPI rank owns one core).
        """
        if lang not in ("fortran", "cpp"):
            raise ValueError("lang must be 'fortran' or 'cpp'")
        n_cores = self.cores if cores is None else cores
        if not 1 <= n_cores <= self.cores:
            raise ValueError(f"cores must be in [1, {self.cores}]")
        rate = self.sustained_flops * n_cores / self.cores
        t = npoints * budget.flops_per_point / rate
        if lang == "cpp":
            t *= self.cpp_slowdown
        return t
