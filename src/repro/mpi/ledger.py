"""Message ledger: the record of simulated MPI traffic.

Every communication primitive in the substrate (FillBoundary point-to-point
exchanges, ParallelCopy global redistribution, reductions) appends
:class:`Message` records here.  The ledger is the ground truth that the
Summit network model prices: message counts, per-kind byte volumes, and
the on-node/off-node split all come from real box-intersection geometry.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Message kinds tracked by the ledger, matching the paper's profiling
#: regions (Fig. 7 splits FillPatch into FillBoundary and ParallelCopy).
KINDS = ("fillboundary", "parallelcopy", "reduce", "averagedown", "regrid")


@dataclass(frozen=True)
class Message:
    """One simulated MPI message."""

    src: int
    dst: int
    nbytes: int
    kind: str

    @property
    def local(self) -> bool:
        """True when source and destination rank coincide (a memcpy)."""
        return self.src == self.dst


def checked_message(src: int, dst: int, nbytes: int, kind: str) -> Message:
    """A :class:`Message` whose kind and size have been validated."""
    if kind not in KINDS:
        raise ValueError(f"unknown message kind {kind!r}")
    if nbytes < 0:
        raise ValueError("message size must be non-negative")
    return Message(src, dst, nbytes, kind)


class CommLedger:
    """Accumulates simulated messages and summarizes traffic."""

    def __init__(self, ranks_per_node: int = 6) -> None:
        #: ranks per node; Summit runs 6 ranks/node (one per V100 GPU)
        self.ranks_per_node = ranks_per_node
        self._messages: List[Message] = []
        self.enabled = True
        self._listeners: List[object] = []

    # -- listeners ---------------------------------------------------------
    def add_listener(self, listener: object) -> None:
        """Attach an observer whose ``on_message(msg)`` sees each record."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: object) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def record(self, src: int, dst: int, nbytes: int, kind: str) -> None:
        """Append one message; ``kind`` must be one of :data:`KINDS`."""
        if self.enabled:
            self.record_many((checked_message(src, dst, nbytes, kind),))

    def record_many(self, messages: Sequence[Message]) -> None:
        """Append already-validated messages (a communication plan's, built
        with :meth:`Communicator.message`) as one batch."""
        if not self.enabled:
            return
        self._messages.extend(messages)
        for msg in messages if self._listeners else ():
            for listener in self._listeners:
                listener.on_message(msg)

    @contextmanager
    def paused(self) -> Iterator["CommLedger"]:
        """Suspend recording for a block (restores the prior state after)."""
        prev = self.enabled
        self.enabled = False
        try:
            yield self
        finally:
            self.enabled = prev

    def clear(self, kind: Optional[str] = None) -> None:
        """Drop recorded messages — all of them, or one ``kind`` only."""
        if kind is None:
            self._messages.clear()
            return
        if kind not in KINDS:
            raise ValueError(f"unknown message kind {kind!r}")
        self._messages = [m for m in self._messages if m.kind != kind]

    def __len__(self) -> int:
        return len(self._messages)

    def __iter__(self) -> Iterator[Message]:
        return iter(self._messages)

    def messages(self, kind: Optional[str] = None) -> List[Message]:
        if kind is None:
            return list(self._messages)
        return [m for m in self._messages if m.kind == kind]

    # -- summaries --------------------------------------------------------
    def total_bytes(self, kind: Optional[str] = None, remote_only: bool = False) -> int:
        return sum(
            m.nbytes
            for m in self._messages
            if (kind is None or m.kind == kind) and not (remote_only and m.local)
        )

    def count(self, kind: Optional[str] = None, remote_only: bool = False) -> int:
        return sum(
            1
            for m in self._messages
            if (kind is None or m.kind == kind) and not (remote_only and m.local)
        )

    def node_of(self, rank: int) -> int:
        return rank // self.ranks_per_node

    def off_node_bytes(self, kind: Optional[str] = None) -> int:
        """Bytes crossing node boundaries (priced at network bandwidth)."""
        return sum(
            m.nbytes
            for m in self._messages
            if (kind is None or m.kind == kind)
            and self.node_of(m.src) != self.node_of(m.dst)
        )

    def on_node_bytes(self, kind: Optional[str] = None) -> int:
        """Bytes between different ranks on the same node (NVLink/shared mem)."""
        return sum(
            m.nbytes
            for m in self._messages
            if (kind is None or m.kind == kind)
            and m.src != m.dst
            and self.node_of(m.src) == self.node_of(m.dst)
        )

    def per_rank_bytes(self, nranks: int, kind: Optional[str] = None,
                       direction: str = "send") -> List[int]:
        """Bytes sent (or received) by each rank, excluding self-messages."""
        out = [0] * nranks
        for m in self._messages:
            if kind is not None and m.kind != kind:
                continue
            if m.local:
                continue
            r = m.src if direction == "send" else m.dst
            out[r] += m.nbytes
        return out

    def by_kind(self) -> Dict[str, Tuple[int, int]]:
        """{kind: (count, bytes)} over all messages."""
        out: Dict[str, Tuple[int, int]] = {}
        counts: Dict[str, int] = defaultdict(int)
        volumes: Dict[str, int] = defaultdict(int)
        for m in self._messages:
            counts[m.kind] += 1
            volumes[m.kind] += m.nbytes
        for k in counts:
            out[k] = (counts[k], volumes[k])
        return out
