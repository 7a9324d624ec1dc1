"""Overhead attribution: tile worker-second capacity into named buckets.

A stage that ran on ``L`` lanes (driver + pool workers) for ``M``
seconds had ``L x M`` worker-seconds of capacity.  Attribution lays
every reconciled lifecycle interval onto its lane's timeline:

- ``serialize`` — driver-lane pickling of task payloads;
- ``queue-wait`` — dispatch-to-start gaps on the worker lane that ran
  the task (the worker-side cost of a cold pool or a slow feed);
- ``execute`` — the task body, on whichever lane ran it (this is the
  only bucket a perfect executor would have);
- ``result`` — driver-lane gaps covered by an in-flight result (a
  worker finished but the driver hadn't collected it yet);
- ``merge`` — driver-lane folding of completions (counter deltas,
  dependent release);
- ``idle`` — the remaining gaps in each lane's timeline.

Idle is measured from the gaps between intervals, **not** computed as
``capacity - everything else``, so the bucket sum matching capacity is
a real cross-process clock reconciliation check (the bench asserts it
within 5%), not an identity that holds by construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.observability.perfscope.critpath import (critical_path,
                                                    critical_path_tasks)
from repro.observability.perfscope.lifecycle import StageTrace, box_of

#: the capacity-tiling buckets, in render order
BUCKETS = ("serialize", "queue_wait", "execute", "result", "merge", "idle")

#: per-kernel-class lifecycle columns (result here is per-task latency)
CLASS_FIELDS = ("count", "serialize_s", "queue_wait_s", "execute_s",
                "result_s", "merge_s")


def _merge_intervals(ivals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    out: List[List[float]] = []
    for lo, hi in sorted(ivals):
        if hi <= lo:
            continue
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def _length(ivals: Sequence[Tuple[float, float]]) -> float:
    return sum(hi - lo for lo, hi in ivals)


def _gaps(ivals: Sequence[Tuple[float, float]],
          span: float) -> List[Tuple[float, float]]:
    """Complement of merged ``ivals`` within [0, span]."""
    out: List[Tuple[float, float]] = []
    cursor = 0.0
    for lo, hi in ivals:
        if lo > cursor:
            out.append((cursor, min(lo, span)))
        cursor = max(cursor, hi)
        if cursor >= span:
            return out
    if cursor < span:
        out.append((cursor, span))
    return out


def _overlap(a: Sequence[Tuple[float, float]],
             b: Sequence[Tuple[float, float]]) -> float:
    """Total length of ``a`` covered by merged ``b``."""
    total = 0.0
    merged = _merge_intervals(list(b))
    for lo, hi in a:
        for mlo, mhi in merged:
            x, y = max(lo, mlo), min(hi, mhi)
            if x < y:
                total += y - x
    return total


class StepPerf:
    """Attribution totals of one step (or a whole run, when merged)."""

    def __init__(self) -> None:
        self.stages = 0
        self.nlanes = 1
        self.tasks = 0
        self.offloaded = 0
        self.makespan_s = 0.0
        self.capacity_s = 0.0
        self.serialize_s = 0.0
        self.queue_wait_s = 0.0
        self.execute_s = 0.0
        self.result_s = 0.0
        self.merge_s = 0.0
        self.idle_s = 0.0
        self.deserialize_s = 0.0
        self.pickle_bytes = 0
        self.critical_path_s = 0.0
        self.reconcile_errors = 0
        self.overhead_s = 0.0
        #: lane index -> idle seconds (the per-worker idle-gap timeline)
        self.lane_idle: Dict[int, float] = {}
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
        return (self.serialize_s + self.queue_wait_s + self.execute_s
                + self.result_s + self.merge_s + self.idle_s)

    @property
    def coverage(self) -> float:
        """Attributed worker-seconds as a fraction of capacity."""
        return self.attributed_s / self.capacity_s if self.capacity_s else 0.0

    @property
    def realized_parallelism(self) -> float:
        """Total busy time over critical-path time (<= nlanes ideally)."""
        if self.critical_path_s <= 0:
            return 0.0
        return self.execute_s / self.critical_path_s

    def bucket(self, name: str) -> float:
        return getattr(self, f"{name}_s")

    # -- accumulation ------------------------------------------------------
    def merge(self, other: "StepPerf") -> "StepPerf":
        self.stages += other.stages
        self.nlanes = max(self.nlanes, other.nlanes)
        self.tasks += other.tasks
        self.offloaded += other.offloaded
        self.makespan_s += other.makespan_s
        self.capacity_s += other.capacity_s
        for b in ("serialize", "queue_wait", "execute", "result", "merge",
                  "idle", "deserialize", "critical_path"):
            setattr(self, f"{b}_s",
                    getattr(self, f"{b}_s") + getattr(other, f"{b}_s"))
        self.pickle_bytes += other.pickle_bytes
        self.reconcile_errors += other.reconcile_errors
        for lane, s in other.lane_idle.items():
            self.lane_idle[lane] = self.lane_idle.get(lane, 0.0) + s
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
            "lanes": float(self.nlanes),
            "stages": float(self.stages),
            "tasks": float(self.tasks),
            "offloaded": float(self.offloaded),
            "makespan_s": self.makespan_s,
            "capacity_s": self.capacity_s,
            "serialize_s": self.serialize_s,
            "queue_wait_s": self.queue_wait_s,
            "execute_s": self.execute_s,
            "result_s": self.result_s,
            "merge_s": self.merge_s,
            "idle_s": self.idle_s,
            "deserialize_s": self.deserialize_s,
            "pickle_bytes": float(self.pickle_bytes),
            "critical_path_s": self.critical_path_s,
            "realized_parallelism": self.realized_parallelism,
            "attributed_s": self.attributed_s,
            "coverage": self.coverage,
            "reconcile_errors": float(self.reconcile_errors),
            "overhead_s": self.overhead_s,
        }
        for lane, s in sorted(self.lane_idle.items()):
            out[f"lane.{lane}.idle_s"] = s
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
    """Tile one stage's capacity into the lifecycle buckets."""
    step = StepPerf()
    step.stages = 1
    step.nlanes = trace.nlanes
    step.tasks = len(trace.spans)
    step.makespan_s = trace.makespan_s
    step.capacity_s = trace.makespan_s * trace.nlanes
    step.reconcile_errors = trace.reconcile_errors
    step.critical_path_s, _ = critical_path(trace)

    lane_busy: Dict[int, List[Tuple[float, float]]] = {
        lane: [] for lane in range(trace.nlanes)}
    result_windows: List[Tuple[float, float]] = []

    for s in trace.spans:
        cols = step.per_class.setdefault(
            s.kclass, {f: 0.0 for f in CLASS_FIELDS})
        cols["count"] += 1
        cols["serialize_s"] += s.serialize_s
        cols["queue_wait_s"] += s.queue_wait_s
        cols["execute_s"] += s.execute_s
        cols["result_s"] += s.result_s
        cols["merge_s"] += s.merge_s
        step.serialize_s += s.serialize_s
        step.queue_wait_s += s.queue_wait_s
        step.execute_s += s.execute_s
        step.merge_s += s.merge_s
        step.deserialize_s += s.deserialize_s
        step.pickle_bytes += s.pickle_bytes
        if s.offloaded:
            step.offloaded += 1
        node = box_of(s.name) if s.kind == "compute" else None
        if node is not None and s.execute_s:
            step.box_costs[node] = step.box_costs.get(node, 0.0) + s.execute_s

        lane = s.lane if s.lane < trace.nlanes else trace.nlanes - 1
        busy = lane_busy.setdefault(lane, [])
        if s.t_started is not None and s.t_finished is not None:
            if s.offloaded and s.t_dispatched is not None:
                # queue wait + execute, contiguous on the worker lane
                busy.append((s.t_dispatched, s.t_finished))
            else:
                busy.append((s.t_started, s.t_finished))
        if s.offloaded:
            if s.t_dispatched is not None and s.serialize_s:
                lane_busy[0].append(
                    (s.t_dispatched - s.serialize_s, s.t_dispatched))
            if s.t_collected is not None and s.t_merged is not None:
                lane_busy[0].append((s.t_collected, s.t_merged))
            if s.t_finished is not None and s.t_collected is not None:
                result_windows.append((s.t_finished, s.t_collected))
        elif s.t_collected is not None and s.t_merged is not None:
            lane_busy[0].append((s.t_collected, s.t_merged))

    for lane in range(trace.nlanes):
        merged = _merge_intervals(lane_busy.get(lane, []))
        gaps = _gaps(merged, trace.makespan_s)
        idle = _length(gaps)
        if lane == 0 and result_windows:
            # driver gaps spent waiting on an in-flight result are the
            # "result" bucket; the remainder is true idle
            waiting = _overlap(gaps, result_windows)
            step.result_s += waiting
            idle -= waiting
        step.lane_idle[lane] = max(0.0, idle)
        step.idle_s += max(0.0, idle)
    return step
