"""Price a functional run's recorded traffic on the Summit network model.

This bridges the two layers: the functional solver records every simulated
MPI message in its :class:`~repro.mpi.ledger.CommLedger`; this module
converts that *measured* traffic — rather than modeled volumes — into
seconds on the fat-tree model, attributed to the paper's profiling
regions.  Useful for validating the performance layer's volume models
against real runs at proxy scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.mpi.ledger import KINDS, CommLedger
from repro.perfmodel.calibration import CAL, Calibration


@dataclass(frozen=True)
class PricedLedger:
    """Seconds per message kind, from recorded traffic."""

    seconds: Dict[str, float]
    off_node_bytes: Dict[str, int]
    on_node_bytes: Dict[str, int]
    messages: Dict[str, int]

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


def price_ledger(ledger: CommLedger, nranks: int, nodes: int,
                 cal: Calibration = CAL) -> PricedLedger:
    """Convert a CommLedger into per-kind seconds on the network model.

    Point-to-point kinds (fillboundary, averagedown) are bounded by the
    busiest receiving rank; global kinds (parallelcopy, regrid) add the
    metadata/handshake term; reductions are priced as binomial trees per
    recorded round-trip.
    """
    if nodes < 1 or nranks < 1:
        raise ValueError("nodes and nranks must be positive")
    net = cal.net
    seconds: Dict[str, float] = {}
    offb: Dict[str, int] = {}
    onb: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    rpn = max(1, nranks // nodes)
    for kind in KINDS:
        counts[kind] = ledger.count(kind)
        if not counts[kind]:
            seconds[kind] = 0.0
            offb[kind] = onb[kind] = 0
            continue
        recv_off = np.zeros(nranks)
        recv_on = np.zeros(nranks)
        nmsg = np.zeros(nranks, dtype=np.int64)
        for m, n in ledger.rows(kind, remote_only=True):
            dst = m.dst % nranks
            src = m.src % nranks
            if src // rpn == dst // rpn:
                recv_on[dst] += m.nbytes * n
            else:
                recv_off[dst] += m.nbytes * n
                nmsg[dst] += n
        offb[kind] = int(recv_off.sum())
        onb[kind] = int(recv_on.sum())
        t = net.p2p_time(float(recv_off.max()), float(recv_on.max()),
                         int(nmsg.max()), nodes)
        if kind in ("parallelcopy", "regrid"):
            # each ParallelCopy episode pays the global metadata handshake;
            # estimate episode count from the traffic structure (one per
            # destination sweep is indistinguishable here, so charge once)
            t += cal.pc_meta_per_rank * nranks + net.barrier_time(nranks)
        if kind == "reduce":
            rounds = max(1, counts[kind]
                         // max(1, 2 * int(np.log2(max(2, nranks)))))
            t = rounds * net.reduction_time(nranks)
        seconds[kind] = float(t)
    return PricedLedger(seconds, offb, onb, counts)
