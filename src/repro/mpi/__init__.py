"""Simulated MPI substrate.

The paper runs CRoCCo with MPI across up to 1024 Summit nodes.  We have one
process, so this package implements a *simulated* SPMD model: every rank
lives in the same address space, ranks own patches through the
DistributionMapping, and communication primitives really move the data
between rank-owned arrays while recording each message (source rank,
destination rank, byte count, kind) in a :class:`~repro.mpi.ledger.CommLedger`.
The performance layer (``repro.perfmodel``) converts ledgers into time using
the fat-tree network model.
"""

from repro.mpi.comm import Communicator
from repro.mpi.ledger import CommLedger, Message

__all__ = ["Communicator", "CommLedger", "Message"]
