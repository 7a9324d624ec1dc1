"""Distributed patch data: the MultiFab.

``MultiFab`` mirrors ``amrex::MultiFab``: one :class:`FArrayBox` per box of
a :class:`BoxArray`, with ownership assigned to simulated ranks through a
:class:`DistributionMapping`.  In this single-process reproduction every
fab is resident, but all cross-rank data motion goes through the
communication routines (:mod:`repro.amr.boundary`,
:mod:`repro.amr.parallelcopy`) so that message volumes are recorded
faithfully in the CommLedger.

A level is one array: a flat ``buffer`` carved into one C-contiguous
``(ncomp, B, *grown)`` array per *group* of equal-shape boxes (the compute
batches), ``fab(i).data`` the view ``[:, b]`` of its group's; every cell
has one flat offset (:meth:`MultiFab.cells`), what plans compile to.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Dict, Hashable, Iterator, List,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.amr.boxarray import BoxArray, grow, num_pts
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
        groups: Optional[Sequence[Tuple[int, ...]]] = None,
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
        #: the boxes of each group array, in buffer order
        self.groups: List[Tuple[int, ...]] = (
            [tuple(g) for g in groups] if groups is not None
            else [(i,) for i in range(len(ba))])
        cells = num_pts(self.grown)
        shapes = (self.grown[:, 1] - self.grown[:, 0] + 1).tolist()
        self.buffer = np.zeros(ncomp * int(cells.sum()), dtype=np.float64)
        #: per group its array; per fab its first cell's offset and the
        #: step between a cell's components (its group's B * cells)
        self.arrays: List[np.ndarray] = []
        self.offset = np.zeros(len(ba), dtype=np.intp)
        self.cstride = np.zeros(len(ba), dtype=np.intp)
        start = 0
        for ids in map(list, self.groups):
            n, size = int(cells[ids[0]]), ncomp * int(cells[ids[0]]) * len(ids)
            self.offset[ids] = start + n * np.arange(len(ids))
            self.cstride[ids] = n * len(ids)
            self.arrays.append(self.buffer[start:start + size].reshape(
                (ncomp, len(ids), *shapes[ids[0]])))
            start += size
        boxes, fabs = ba.boxes(), [None] * len(ba)
        for ids, arr in zip(self.groups, self.arrays):
            for b, i in enumerate(ids):
                fabs[i] = FArrayBox(boxes[i], ncomp, self.ngrow, data=arr[:, b])
        self._fabs: Dict[int, FArrayBox] = dict(enumerate(fabs))
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

    def cells(self, fab: np.ndarray, cell: np.ndarray,
              comps: Optional[range] = None) -> "Cells":
        """Cell ``cell[t]`` (row-major in fab ``fab[t]``'s grown box) of
        the components ``comps`` (default: all) in :attr:`buffer`."""
        return Cells(self.offset[fab] + cell, self.cstride[fab],
                     range(self.ncomp) if comps is None else comps)

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
    def set_val(self, value: float) -> None:
        self.buffer.fill(value)

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
        return bool(np.isnan(self.buffer).any())

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


class Cells:
    """Flat offsets of some cells of a MultiFab's buffer, components
    ``comps`` (from each cell's component-0 offset ``at`` and ``stride``):
    what plans and ghost-face tables gather from and scatter into in one
    pass.  Every offset, ``(ncomp, T)`` — unless the cells share a stride
    (a level of a few large boxes): then the first component's ``(T,)``,
    int32 where it fits, and the strides added when it runs, as such a 3-D
    level's ghost-cell tables would otherwise be as large as its state."""

    def __init__(self, at: np.ndarray, stride: np.ndarray,
                 comps: range) -> None:
        self.size, self.ncomp = len(at), len(comps)
        if self.size and (stride == stride[0]).all():
            self.step = int(stride[0])
            self.index = at + comps.start * self.step
            if self.index.max() + self.ncomp * self.step < 2 ** 31:
                # widened by the strides' addition anyway, when it runs
                self.index = self.index.astype(np.int32)
        else:
            self.index = at[None] + stride[None] * np.asarray(comps)[:, None]
            self.step = None

    def take(self, buffer: np.ndarray) -> np.ndarray:
        """The values, ``(ncomp, T)``."""
        return np.take(buffer, self._offsets())

    def put(self, buffer: np.ndarray, values: np.ndarray) -> None:
        """Write ``values`` (an assignment: twice as fast as ``np.put``)."""
        buffer[self._offsets()] = values

    def _offsets(self) -> np.ndarray:
        if self.step is None:
            return self.index
        return self.index + self.step * np.arange(self.ncomp)[:, None]
