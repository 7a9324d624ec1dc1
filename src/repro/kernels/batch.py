"""Box batches: the equal-shape patches of a level run as one kernel call.

An AMR hierarchy is many small patches (44 boxes of 12-1,024 cells on
the DMR deck), and a patch-at-a-time advance pays hundreds of NumPy calls
per patch on arrays of a few hundred elements.  A :class:`Batch` is the
unit the RK advance runs instead: patches of one level with the same
grown shape on a batch axis between component and grid —
``u (ncons, B, *grown)`` with :class:`~repro.numerics.metrics.StackedMetrics`
— for one :meth:`KernelSet.rhs` / ``update`` / ``max_rate`` call each.

A batch *is* storage: batch ``g`` runs in place on group array ``g`` of
the level's MultiFabs (``MultiFab.arrays``, one per :func:`shape_groups`
group).  Batches are built with the level storage, reachable only
through it, and die with it at the next regrid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.numerics.metrics import StackedMetrics

#: most grown cells stacked into one batch.  Measured on the benchmark
#: decks with the one WENO sweep (EXPERIMENTS.md "One WENO sweep"): rhs per
#: RK stage on dmr_amr_v20 / dmr_churn_v21 is 38.5 / 54.5 ms per box and
#: 22.8 / 26.8, 22.0 / 23.5, 20.6 / 22.8 ms at 2,048 / 4,096 / 8,192; the
#: batch stacks (now group arrays) were what peak RSS was made of: single-run
#: peak_rss_mb +1.9% / +1.9% at 4,096 and +5.6% / +5.5% at 8,192 (bound 5%).
#: The rule for moving it is "faster, at <= +2% RSS on both decks": 4,096
#: passes by a tenth of a point for 3.5% / 12% of a stage — a tie, so it
#: stays.  A patch over the budget is a batch of one.
BATCH_CELLS = 2048


@dataclass
class Batch:
    """Equal-shape patches of one level: group ``group`` of its storage."""

    group: int
    ids: Tuple[int, ...]
    #: owning rank of each member
    ranks: Tuple[int, ...]
    #: the members' metrics on the batch axis (owns ``m`` and ``J``)
    metrics: StackedMetrics


def shape_groups(shapes: Dict[int, tuple]) -> List[Tuple[int, ...]]:
    """The keys of ``shapes`` grouped by equal shape, in order, each group
    cut into parts of at most :data:`BATCH_CELLS` cells."""
    groups: Dict[tuple, List[int]] = {}
    for i, shape in shapes.items():
        groups.setdefault(shape, []).append(i)
    out = []
    for shape, ids in groups.items():
        step = max(1, BATCH_CELLS // int(np.prod(shape)))
        out.extend(tuple(ids[k:k + step]) for k in range(0, len(ids), step))
    return out


def rhs_update(kernels, case, u: np.ndarray, du: np.ndarray,
               coords: np.ndarray, metrics: StackedMetrics,
               ranks: Sequence[int], ng: int, time: float, dt: float,
               stage: int) -> None:
    """One RK stage of a batch: RHS (+ source), then the update, in place
    on its group arrays ``u`` / ``du`` / ``coords`` ``(ncomp, B, *grown)``."""
    valid = (Ellipsis,) + (slice(ng, -ng),) * kernels.layout.dim
    rhs = kernels.rhs(u, metrics, ng, ranks)
    for b in range(u.shape[1]):
        # not batched: sources see one patch at a time
        src = case.source(u[:, b][valid], coords[:, b][valid], time,
                          metrics=metrics.member(b).interior(ng))
        if src is not None:
            rhs[:, b] += src
    kernels.update(u[valid], du, rhs, dt, stage, ranks)
