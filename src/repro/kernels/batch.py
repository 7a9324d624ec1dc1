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
through it, and die with it at the next regrid; the stage program binds
them (:func:`bind_batches`) and dies with the storage too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.cases.base import Case
from repro.kernels.api import BoundStage
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
    #: the members' metrics on the batch axis: views of group ``group``
    #: of the level's metric MultiFab (a Cartesian batch: one cell's,
    #: broadcast)
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


class BoundBatch(NamedTuple):
    """One batch's RK stage, bound once per stage program to its storage."""

    stage: BoundStage  # of its state group array (KernelSet.bind)
    du: np.ndarray  # its du group array
    #: ``(member, u, coords, metrics)`` on each member's valid region, of
    #: its source call: none for a case without sources
    sources: tuple


def bind_batches(kernels, case, batches, ng: int) -> List[BoundBatch]:
    """Bind each ``(u, du, coords, metrics, ranks)`` group of arrays of
    ``batches`` (the batches of one stage program, whose stages share the
    backend's scratch) for :func:`rhs_update`."""
    stages = kernels.bind([(u, metrics, ng, ranks)
                           for u, _, _, metrics, ranks in batches])
    # sources see one patch at a time, of a case that has them
    sourced = getattr(type(case), "source", None) is not Case.source
    valid = (Ellipsis,) + (slice(ng, -ng),) * kernels.layout.dim
    return [BoundBatch(stage, du, tuple(
        (b, u[:, b][valid], coords[:, b][valid],
         metrics.member(b).interior(ng))
        for b in range(u.shape[1]) if sourced))
        for stage, (u, du, coords, metrics, _) in zip(stages, batches)]


def rhs_update(kernels, case, batch: BoundBatch, time: float, dt: float,
               stage: int) -> None:
    """One RK stage of a batch: RHS (+ source), then the update, in place
    on its group arrays."""
    rhs = kernels.rhs(batch.stage)
    for b, u, coords, metrics in batch.sources:
        src = case.source(u, coords, time, metrics=metrics)
        if src is not None:
            rhs[:, b] += src
    kernels.update(batch.stage, batch.du, rhs, dt, stage)
