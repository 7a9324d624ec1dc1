"""Message ledger: the record of simulated MPI traffic.

Every communication primitive in the substrate (FillBoundary point-to-point
exchanges, ParallelCopy global redistribution, reductions) records
:class:`Message` events here.  The ledger is the ground truth that the
Summit network model prices: message counts, per-kind byte volumes, and
the on-node/off-node split all come from real box-intersection geometry.

The ledger keeps totals, not history: one multiset of messages
(:attr:`CommLedger.table`), in which identical messages collapse into a
count, so its size follows the variety of box overlaps and not the number
of steps.  Every summary is a view of that table.  Nothing in the
performance model prices the order of messages, so none is kept.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

#: Message kinds tracked by the ledger, matching the paper's profiling
#: regions (Fig. 7 splits FillPatch into FillBoundary and ParallelCopy).
KINDS = ("fillboundary", "parallelcopy", "reduce", "averagedown", "regrid")


class Message(NamedTuple):
    """One simulated MPI message: immutable, and hashed at C speed, because
    every recorded message is counted under its hash."""

    src: int
    dst: int
    nbytes: int
    kind: str


def checked_message(src: int, dst: int, nbytes: int, kind: str) -> Message:
    """A :class:`Message` whose kind and size have been validated."""
    if kind not in KINDS:
        raise ValueError(f"unknown message kind {kind!r}")
    if nbytes < 0:
        raise ValueError("message size must be non-negative")
    return Message(src, dst, nbytes, kind)


class CommLedger:
    """Counts simulated messages and summarizes traffic."""

    def __init__(self, ranks_per_node: int = 6) -> None:
        #: ranks per node; Summit runs 6 ranks/node (one per V100 GPU)
        self.ranks_per_node = ranks_per_node
        #: ``Counter[Message]``: how often each message was recorded
        self.table: Counter = Counter()

    def record(self, src: int, dst: int, nbytes: int, kind: str) -> None:
        """Count one message; ``kind`` must be one of :data:`KINDS`."""
        self.record_many((checked_message(src, dst, nbytes, kind),))

    def record_many(self, messages: Sequence[Message]) -> None:
        """Count already-validated messages (a communication plan's, built
        with :meth:`Communicator.message`) as one batch."""
        self.table.update(messages)

    def clear(self, kind: Optional[str] = None) -> None:
        """Drop recorded messages — all of them, or one ``kind`` only."""
        if kind is None:
            self.table.clear()
            return
        if kind not in KINDS:
            raise ValueError(f"unknown message kind {kind!r}")
        for msg in [m for m in self.table if m.kind == kind]:
            del self.table[msg]

    def __len__(self) -> int:
        return self.table.total()

    # -- summaries (views of the table) -----------------------------------
    def rows(self, kind: Optional[str] = None) -> Iterator[Tuple[Message, int]]:
        """``(message, times recorded)`` for each distinct message."""
        for m, n in self.table.items():
            if kind is None or m.kind == kind:
                yield m, n

    def total_bytes(self, kind: Optional[str] = None) -> int:
        return sum(m.nbytes * n for m, n in self.rows(kind))

    def traffic(self) -> Dict[str, Dict[str, int]]:
        """``{kind: {messages, bytes, on_node_bytes, off_node_bytes}}`` in
        one pass.  The on/off-node split covers messages between different
        ranks; a kind has either key only once such a message was seen."""
        out: Dict[str, Dict[str, int]] = {}
        rpn = self.ranks_per_node
        for m, n in self.table.items():
            t = out.get(m.kind)
            if t is None:
                t = out[m.kind] = {"messages": 0, "bytes": 0}
            t["messages"] += n
            t["bytes"] += m.nbytes * n
            if m.src != m.dst:
                where = ("on_node_bytes" if m.src // rpn == m.dst // rpn
                         else "off_node_bytes")
                t[where] = t.get(where, 0) + m.nbytes * n
        return out

    def by_kind(self) -> Dict[str, Tuple[int, int]]:
        """{kind: (count, bytes)} over all messages."""
        return {kind: (t["messages"], t["bytes"])
                for kind, t in self.traffic().items()}

    def comms_matrix(self, nranks: Optional[int] = None) -> List[List[int]]:
        """Dense rank-to-rank byte matrix (row = src, column = dst)."""
        if nranks is None:
            nranks = 1 + max((max(m.src, m.dst) for m in self.table),
                             default=0)
        out = [[0] * nranks for _ in range(nranks)]
        for m, n in self.table.items():
            out[m.src][m.dst] += m.nbytes * n
        return out
