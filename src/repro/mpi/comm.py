"""Communicator abstraction for the simulated SPMD model.

All ranks share one address space.  A :class:`Communicator` carries the
rank count, the node topology (ranks per node, as on Summit: 6 ranks per
node, one per GPU), and the :class:`~repro.mpi.ledger.CommLedger` that
records traffic.  Collective reductions here both compute the true value
and account for the message pattern of a binomial reduction tree, which is
what ``amrex::ParallelDescriptor::ReduceRealMin`` (used by ComputeDt)
performs.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.mpi.ledger import CommLedger, Message, checked_message


class Communicator:
    """A simulated MPI communicator over ``nranks`` ranks."""

    def __init__(self, nranks: int, ranks_per_node: int = 6,
                 ledger: Optional[CommLedger] = None) -> None:
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        if ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        self.nranks = nranks
        self.ranks_per_node = ranks_per_node
        self.ledger = ledger if ledger is not None else CommLedger(ranks_per_node)
        #: communication plans built against this communicator (each
        #: CommPlan counts itself; the recorder reports the per-step delta)
        self.plans_built = 0

    # -- point-to-point ------------------------------------------------------
    def send_bytes(self, src: int, dst: int, nbytes: int, kind: str) -> None:
        """Account for one point-to-point message (data moved by the caller)."""
        self.ledger.record_many((self.message(src, dst, nbytes, kind),))

    def message(self, src: int, dst: int, nbytes: int, kind: str) -> Message:
        """A validated message, for a communication plan to hold and replay
        through :meth:`CommLedger.record_many` every time it runs."""
        self._check_rank(src)
        self._check_rank(dst)
        return checked_message(src, dst, nbytes, kind)

    # -- collectives -----------------------------------------------------
    def reduce_min(self, values: Sequence[float], itemsize: int = 8) -> float:
        """All-reduce MIN over per-rank values via a binomial tree + broadcast.

        ``values`` holds one contribution per rank.  Returns the global min
        and records the tree's messages (2 * ceil(log2(n)) rounds).
        """
        return self._tree_reduce(values, min, itemsize)

    def reduce_max(self, values: Sequence[float], itemsize: int = 8) -> float:
        return self._tree_reduce(values, max, itemsize)

    def _tree_reduce(self, values: Sequence[float],
                     op: Callable[[float, float], float], itemsize: int) -> float:
        if len(values) != self.nranks:
            raise ValueError(
                f"expected one value per rank ({self.nranks}), got {len(values)}"
            )
        vals: List[float] = [float(v) for v in values]
        # reduce to rank 0
        stride = 1
        while stride < self.nranks:
            for r in range(0, self.nranks, 2 * stride):
                peer = r + stride
                if peer < self.nranks:
                    self.ledger.record(peer, r, itemsize, "reduce")
                    vals[r] = op(vals[r], vals[peer])
            stride *= 2
        result = vals[0]
        # broadcast back down the same tree
        stride = 1 << max(0, (self.nranks - 1).bit_length() - 1)
        while stride >= 1:
            for r in range(0, self.nranks, 2 * stride):
                peer = r + stride
                if peer < self.nranks:
                    self.ledger.record(r, peer, itemsize, "reduce")
            stride //= 2
        return result

    def _check_rank(self, r: int) -> None:
        if not 0 <= r < self.nranks:
            raise ValueError(f"rank {r} out of range [0, {self.nranks})")

    def __repr__(self) -> str:
        return f"Communicator(nranks={self.nranks}, ranks_per_node={self.ranks_per_node})"
