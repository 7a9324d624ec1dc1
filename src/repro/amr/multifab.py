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
from repro.mpi.comm import Communicator

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
        self.ngrow = IntVect.coerce(ngrow, ba.dim) if len(ba) else IntVect.filled(max(ba.dim, 1), 0)
        self.comm = comm if comm is not None else Communicator(1, 1)
        #: every fab's grown box, as one ``(N, 2, dim)`` array
        self.grown = grow(ba.lohi, self.ngrow)
        self._fabs: Dict[int, FArrayBox] = {
            i: FArrayBox(ba[i], ncomp, self.ngrow) for i in range(len(ba))
        }
        #: communication plans writing this MultiFab, by operation; they
        #: describe its layout, so they live and die with it
        self._plans: Dict[Hashable, "CommPlan"] = {}

    # -- construction helpers ------------------------------------------------
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

    @property
    def dim(self) -> int:
        return self.ba.dim

    # -- elementwise operations ----------------------------------------------
    def set_val(self, value: float, comp: Optional[int] = None) -> None:
        for f in self._fabs.values():
            f.set_val(value, comp=comp)

    # -- reductions (via the communicator, so traffic is accounted) -----------
    def min(self, comp: int = 0) -> float:
        """Global min over valid regions, via a simulated tree reduction."""
        per_rank = self._per_rank_reduce(comp, np.min, np.inf)
        return self.comm.reduce_min(per_rank)

    def max(self, comp: int = 0) -> float:
        per_rank = self._per_rank_reduce(comp, np.max, -np.inf)
        return self.comm.reduce_max(per_rank)

    def _per_rank_reduce(self, comp: int, op, identity: float) -> list:
        per_rank = [identity] * self.comm.nranks
        for i, f in self:
            r = self.dm[i]
            per_rank[r] = op([per_rank[r], float(op(f.valid()[comp]))])
        return per_rank

    def contains_nan(self) -> bool:
        return any(f.contains_nan() for f in self._fabs.values())

    # -- communication (delegating; keeps this module data-only) --------------
    def parallel_copy(self, src: "MultiFab", src_comp: int = 0, dst_comp: int = 0,
                      ncomp: Optional[int] = None, fill_ghosts: bool = False) -> None:
        """Globally redistribute data from ``src`` (different layout allowed)."""
        from repro.amr.parallelcopy import parallel_copy

        parallel_copy(self, src, src_comp, dst_comp, ncomp, fill_ghosts)

    def __repr__(self) -> str:
        return (
            f"MultiFab(nboxes={len(self)}, ncomp={self.ncomp}, "
            f"ngrow={self.ngrow}, pts={self.ba.num_pts()})"
        )
