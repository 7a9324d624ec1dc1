"""Distributed patch data: the MultiFab.

``MultiFab`` mirrors ``amrex::MultiFab``: one :class:`FArrayBox` per box of
a :class:`BoxArray`, with ownership assigned to simulated ranks through a
:class:`DistributionMapping`.  In this single-process reproduction every
fab is resident, but all cross-rank data motion goes through the
communication routines (:mod:`repro.amr.boundary`,
:mod:`repro.amr.parallelcopy`) so that message volumes are recorded
faithfully in the CommLedger.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Hashable, Iterator, Optional, Tuple

import numpy as np

from repro.amr.boxarray import BoxArray, grow
from repro.amr.distribution import DistributionMapping
from repro.amr.fab import FArrayBox
from repro.amr.intvect import IntVect, IntVectLike
from repro.mpi.comm import Communicator, SerialComm

if TYPE_CHECKING:
    from repro.amr.plan import CommPlan


class MultiFab:
    """A collection of patch arrays distributed over simulated ranks."""

    def __init__(
        self,
        ba: BoxArray,
        dm: DistributionMapping,
        ncomp: int,
        ngrow: IntVectLike = 0,
        comm: Optional[Communicator] = None,
    ) -> None:
        if len(dm) != len(ba):
            raise ValueError("DistributionMapping length must match BoxArray")
        self.ba = ba
        self.dm = dm
        self.ncomp = ncomp
        self.ngrow = IntVect.coerce(ngrow, ba.dim) if len(ba) else IntVect.zero(max(ba.dim, 1))
        self.comm = comm if comm is not None else SerialComm()
        #: every fab's grown box, as one ``(N, 2, dim)`` array
        self.grown = grow(ba.lohi, self.ngrow)
        self._fabs: Dict[int, FArrayBox] = {
            i: FArrayBox(ba[i], ncomp, self.ngrow) for i in range(len(ba))
        }
        #: communication plans writing this MultiFab, by operation; they
        #: describe its layout, so they live and die with it
        self._plans: Dict[Hashable, "CommPlan"] = {}

    # -- construction helpers ------------------------------------------------
    @classmethod
    def like(cls, other: "MultiFab", ncomp: Optional[int] = None,
             ngrow: Optional[IntVectLike] = None) -> "MultiFab":
        """A new MultiFab on the same BoxArray/DistributionMapping/comm."""
        return cls(
            other.ba,
            other.dm,
            ncomp if ncomp is not None else other.ncomp,
            ngrow if ngrow is not None else other.ngrow,
            other.comm,
        )

    def plan(self, slot: Hashable, deps: tuple,
             build: Callable[[], "CommPlan"]) -> "CommPlan":
        """The cached plan of operation ``slot``, rebuilt when any object
        it was built against (``deps``, compared by identity — the source
        layout, the coarse MultiFab under a fine one) has been replaced."""
        plan = self._plans.get(slot)
        if plan is None or any(a is not b for a, b in zip(plan.deps, deps)):
            plan = self._plans[slot] = build()
            plan.deps = deps
        return plan

    # -- protocol ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ba)

    def __iter__(self) -> Iterator[Tuple[int, FArrayBox]]:
        """Iterate (global box index, fab) — the MFIter equivalent."""
        return iter(self._fabs.items())

    def fab(self, i: int) -> FArrayBox:
        return self._fabs[i]

    def owner(self, i: int) -> int:
        return self.dm[i]

    @property
    def dim(self) -> int:
        return self.ba.dim

    def num_pts(self) -> int:
        return self.ba.num_pts()

    def nbytes(self) -> int:
        return sum(f.nbytes() for f in self._fabs.values())

    # -- elementwise operations ----------------------------------------------
    def set_val(self, value: float, comp: Optional[int] = None) -> None:
        for f in self._fabs.values():
            f.set_val(value, comp=comp)

    def copy_values_from(self, other: "MultiFab", src_comp: int = 0,
                         dst_comp: int = 0, ncomp: Optional[int] = None) -> None:
        """Fab-by-fab copy; requires identical BoxArray and DistributionMapping."""
        if other.ba != self.ba or other.dm != self.dm:
            raise ValueError("copy_values_from requires matching layout; "
                             "use parallel_copy for redistribution")
        nc = ncomp if ncomp is not None else min(self.ncomp - dst_comp,
                                                 other.ncomp - src_comp)
        for i, f in self:
            f.copy_from(other.fab(i), f.box, src_comp, dst_comp, nc)

    def apply(self, fn: Callable[[np.ndarray], None], include_ghosts: bool = False) -> None:
        """Apply an in-place function to each fab's data (valid or whole array)."""
        for _, f in self:
            fn(f.whole() if include_ghosts else f.valid())

    def saxpy(self, a: float, x: "MultiFab", src_comp: int = 0,
              dst_comp: int = 0, ncomp: Optional[int] = None) -> None:
        """self += a * x over valid regions (layouts must match)."""
        if x.ba != self.ba:
            raise ValueError("saxpy requires matching BoxArray")
        nc = ncomp if ncomp is not None else min(self.ncomp - dst_comp,
                                                 x.ncomp - src_comp)
        for i, f in self:
            dst = f.valid(slice(dst_comp, dst_comp + nc))
            src = x.fab(i).valid(slice(src_comp, src_comp + nc))
            dst += a * src

    def scale(self, a: float) -> None:
        for _, f in self:
            f.valid()[...] *= a

    # -- reductions (via the communicator, so traffic is accounted) -----------
    def min(self, comp: int = 0) -> float:
        """Global min over valid regions, via a simulated tree reduction."""
        per_rank = self._per_rank_reduce(comp, np.min, np.inf)
        return self.comm.reduce_min(per_rank)

    def max(self, comp: int = 0) -> float:
        per_rank = self._per_rank_reduce(comp, np.max, -np.inf)
        return self.comm.reduce_max(per_rank)

    def sum(self, comp: int = 0) -> float:
        per_rank = self._per_rank_reduce(comp, np.sum, 0.0)
        return self.comm.reduce_sum(per_rank)

    def norm2(self, comp: int = 0) -> float:
        per_rank = [0.0] * self.comm.nranks
        for i, f in self:
            v = f.valid()[comp]
            per_rank[self.dm[i]] += float(np.sum(v * v))
        return float(np.sqrt(self.comm.reduce_sum(per_rank)))

    def _per_rank_reduce(self, comp: int, op, identity: float) -> list:
        per_rank = [identity] * self.comm.nranks
        for i, f in self:
            v = float(op(f.valid()[comp]))
            r = self.dm[i]
            if op is np.sum:
                per_rank[r] += v
            else:
                per_rank[r] = op([per_rank[r], v])
        return per_rank

    def contains_nan(self) -> bool:
        return any(f.contains_nan() for f in self._fabs.values())

    # -- communication (delegating; keeps this module data-only) --------------
    def fill_boundary(self, geom=None) -> None:
        """Exchange ghost cells between patches (and across periodic faces)."""
        from repro.amr.boundary import fill_boundary

        fill_boundary(self, geom)

    def parallel_copy(self, src: "MultiFab", src_comp: int = 0, dst_comp: int = 0,
                      ncomp: Optional[int] = None, fill_ghosts: bool = False) -> None:
        """Globally redistribute data from ``src`` (different layout allowed)."""
        from repro.amr.parallelcopy import parallel_copy

        parallel_copy(self, src, src_comp, dst_comp, ncomp, fill_ghosts)

    def __repr__(self) -> str:
        return (
            f"MultiFab(nboxes={len(self)}, ncomp={self.ncomp}, "
            f"ngrow={self.ngrow}, pts={self.num_pts()})"
        )
