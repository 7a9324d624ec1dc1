"""Overhead attribution: tile a stage's makespan into named buckets.

Every task of a stage runs in the driver, one after another, so the
stage's capacity is its makespan.  Attribution lays every lifecycle
interval onto that one timeline:

- ``execute`` — the task body (the only bucket a perfect scheduler would
  have);
- ``merge`` — folding a completion into the step (report accounting,
  dependent release);
- ``idle`` — the remaining gaps: scheduling between tasks, stage set-up
  and tear-down.

Idle is measured from the gaps between intervals, **not** computed as
``makespan - everything else``, so the bucket sum matching the makespan
(``coverage``, asserted within 5% in tier-1) is a real check of the
timestamps, not an identity that holds by construction.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.observability.perfscope.critpath import (critical_path,
                                                    critical_path_tasks)
from repro.observability.perfscope.lifecycle import StageTrace, box_of

#: the makespan-tiling buckets, in render order
BUCKETS = ("execute", "merge", "idle")

#: per-kernel-class lifecycle columns
CLASS_FIELDS = ("count", "execute_s", "merge_s")


def _idle(ivals: List[Tuple[float, float]], span: float) -> float:
    """Length of [0, span] not covered by any of ``ivals``."""
    idle, cursor = 0.0, 0.0
    for lo, hi in sorted(ivals):
        if lo > cursor:
            idle += min(lo, span) - cursor
        cursor = max(cursor, hi)
        if cursor >= span:
            return idle
    return idle + (span - cursor)


class StepPerf:
    """Attribution totals of one step (or a whole run, when merged)."""

    def __init__(self) -> None:
        self.stages = 0
        self.tasks = 0
        self.makespan_s = 0.0
        self.execute_s = 0.0
        self.merge_s = 0.0
        self.idle_s = 0.0
        self.critical_path_s = 0.0
        self.overhead_s = 0.0
        #: task name -> weighted seconds on some stage's critical path
        self.cp_tasks: Dict[str, float] = {}
        #: kernel class -> lifecycle columns (CLASS_FIELDS)
        self.per_class: Dict[str, Dict[str, float]] = {}
        #: compute node (level, first box, members) -> execute seconds
        #: (cost-fed load balancing input); a batch runs as one kernel
        #: call, so its cost belongs to the batch, not to a member
        self.box_costs: Dict[Tuple[int, int, int], float] = {}

    # -- derived -----------------------------------------------------------
    @property
    def attributed_s(self) -> float:
        return self.execute_s + self.merge_s + self.idle_s

    @property
    def coverage(self) -> float:
        """Attributed seconds as a fraction of the makespan."""
        return self.attributed_s / self.makespan_s if self.makespan_s else 0.0

    @property
    def realized_parallelism(self) -> float:
        """Total busy time over critical-path time: the concurrency the
        stage DAGs offer (the one lane realizes 1x of it)."""
        if self.critical_path_s <= 0:
            return 0.0
        return self.execute_s / self.critical_path_s

    # -- accumulation ------------------------------------------------------
    def merge(self, other: "StepPerf") -> "StepPerf":
        self.stages += other.stages
        self.tasks += other.tasks
        self.makespan_s += other.makespan_s
        for b in BUCKETS + ("critical_path",):
            setattr(self, f"{b}_s",
                    getattr(self, f"{b}_s") + getattr(other, f"{b}_s"))
        for name, s in other.cp_tasks.items():
            self.cp_tasks[name] = self.cp_tasks.get(name, 0.0) + s
        for cls, cols in other.per_class.items():
            mine = self.per_class.setdefault(
                cls, {f: 0.0 for f in CLASS_FIELDS})
            for f, v in cols.items():
                mine[f] = mine.get(f, 0.0) + v
        for key, s in other.box_costs.items():
            self.box_costs[key] = self.box_costs.get(key, 0.0) + s
        return self

    @classmethod
    def from_traces(cls, traces: Sequence[StageTrace]) -> "StepPerf":
        step = cls()
        for trace in traces:
            step.merge(attribute_stage(trace))
        step.cp_tasks = critical_path_tasks(traces)
        return step

    # -- export ------------------------------------------------------------
    def as_gauges(self, top_cp: int = 8) -> Dict[str, float]:
        """Flat dict for the recorder's ``perf.*`` gauges."""
        out = {
            "stages": float(self.stages),
            "tasks": float(self.tasks),
            "makespan_s": self.makespan_s,
            "execute_s": self.execute_s,
            "merge_s": self.merge_s,
            "idle_s": self.idle_s,
            "critical_path_s": self.critical_path_s,
            "realized_parallelism": self.realized_parallelism,
            "attributed_s": self.attributed_s,
            "coverage": self.coverage,
            "overhead_s": self.overhead_s,
        }
        for cls, cols in sorted(self.per_class.items()):
            for f, v in cols.items():
                out[f"class.{cls}.{f}"] = v
        ranked = sorted(self.cp_tasks.items(), key=lambda kv: -kv[1])
        for name, s in ranked[:top_cp]:
            out[f"cp.{name}"] = s
        for (lev, box, members), s in sorted(self.box_costs.items()):
            out[f"box_cost.L{lev}.b{box}x{members}"] = s
        return out


def attribute_stage(trace: StageTrace) -> StepPerf:
    """Tile one stage's makespan into the lifecycle buckets."""
    step = StepPerf()
    step.stages = 1
    step.tasks = len(trace.spans)
    step.makespan_s = trace.makespan_s
    step.critical_path_s, _ = critical_path(trace)

    busy: List[Tuple[float, float]] = []
    for s in trace.spans:
        cols = step.per_class.setdefault(
            s.kclass, {f: 0.0 for f in CLASS_FIELDS})
        cols["count"] += 1
        cols["execute_s"] += s.execute_s
        cols["merge_s"] += s.merge_s
        step.execute_s += s.execute_s
        step.merge_s += s.merge_s
        node = box_of(s.name) if s.kind == "compute" else None
        if node is not None and s.execute_s:
            step.box_costs[node] = step.box_costs.get(node, 0.0) + s.execute_s
        if s.t_started is not None and s.t_finished is not None:
            busy.append((s.t_started, s.t_merged if s.t_merged is not None
                         else s.t_finished))
    step.idle_s = _idle(busy, trace.makespan_s)
    return step
