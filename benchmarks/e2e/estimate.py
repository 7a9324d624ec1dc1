"""From the raw results of the child runs to the reported metrics.

Pure functions of the dictionaries ``child.py`` prints, so the estimator
can be tested on synthetic timings.

**The estimator.**  Trajectories are deterministic, so every repeat
executes the same sequence of operations and the machine only ever *adds*
time.  On a shared host that added time comes in bursts of milliseconds
that no half-second step ever escapes, but most sub-millisecond pieces of
a step do in at least one repeat.  Every child therefore reports each
step cut into *segments* that sum to its wall (launch-to-launch intervals
in a plain run, span self times in a traced one), and the time of step
*k* is the sum over segments of the minimum across repeats::

    w[k] = sum_j min_r segment[r][k][j]

— what the step takes when nothing interferes.  Work the program itself
does every time (garbage collection, first-call set-up) repeats in every
run and stays in.
"""

from __future__ import annotations

import math
from statistics import mean, median, quantiles
from typing import Dict, List, Optional, Sequence

#: a row is flagged noisy above this median relative max-min step spread
NOISY_SPREAD = 0.40

#: the spans whose self time makes up FillPatch (outside Regrid)
FILLPATCH_SPANS = ("amr.interp", "amr.parallelcopy_coords",
                   "amr.fillboundary_nowait", "amr.fillboundary_finish")
REGRID_SPANS = ("amr.regrid", "amr.regrid_tag", "amr.regrid_remake")


def per_index_min(series: Sequence[Sequence[float]]) -> List[float]:
    """Element-wise minimum of equally long per-step series."""
    return [min(col) for col in zip(*series)]


def segment_minima(runs: Sequence[dict], k: int) -> List[float]:
    """Per-segment minimum across runs of step ``k``.

    Runs that disagree on the number of segments did not repeat each
    other — :func:`failures` reports that — and the first run stands alone.
    """
    per_run = [r["segments"][k] for r in runs]
    if len({len(segs) for segs in per_run}) != 1:
        per_run = per_run[:1]
    return per_index_min(per_run)


def floor_steps(runs: Sequence[dict]) -> List[float]:
    """``w[k]``: the undisturbed wall of every step (see module docstring)."""
    nsteps = min(len(r["segments"]) for r in runs)
    return [sum(segment_minima(runs, k)) for k in range(nsteps)]


def repeat_spread(walls: Sequence[Sequence[float]]) -> float:
    """``median_k (max_r - min_r) / min_r``: how noisy the raw steps were
    (the estimator is built not to care; a reader of the result should)."""
    if len(walls) < 2:
        return 0.0
    return median((max(col) - min(col)) / min(col) for col in zip(*walls))


def end_to_end(runs: Sequence[dict]) -> Dict[str, float]:
    """The end-to-end metrics of one workload from its untraced runs."""
    w = floor_steps(runs)
    cells = runs[0]["cells"][:len(w)]
    return {
        "step_s": median(w),
        "us_per_cell_update": 1e6 * sum(w) / sum(cells),
        # time to solution: the fastest import + set-up + teardown of any
        # repeat, plus the undisturbed steps
        "run_s": min(r["run_s"] - sum(r["walls"]) for r in runs) + sum(w),
        "setup_s": min(r["setup_s"] for r in runs),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }


def failures(runs: Sequence[dict]) -> dict:
    """Attempted / failed step counts and the checks behind ``correct``.

    A run whose final state fails its check has already counted all its
    steps as failed; on top of that, every repeat of one (workload, seed)
    must end in the bitwise same state after exactly the same counts.
    """
    attempted = sum(r["steps"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    deterministic = all(
        r["check"]["sha256"] == runs[0]["check"]["sha256"]
        and exact_counts(r) == exact_counts(runs[0]) for r in runs[1:])
    if not deterministic:
        failed = attempted
    drifts = [r["check"]["l2_drift"] for r in runs
              if r["check"]["l2_drift"] is not None]
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "correct": failed == 0,
        "deterministic": deterministic,
        "reference": runs[0]["check"]["reference"],
        "l2_drift": max(drifts) if drifts else None,
        "errors": sorted({r["error"] for r in runs if r["error"]}),
    }


def exact_counts(run: dict) -> Dict[str, float]:
    """The counts that must repeat exactly, per step where they scale."""
    n = len(run["walls"])
    launches = run["counts"]["launches"]
    messages = run["counts"]["messages"]
    total_launches = sum(c["launches"] for c in launches.values())
    total_points = sum(c["points"] for c in launches.values())
    out = {
        "amr.regrids": run["counts"]["regrids"] / n,
        "amr.boxes": mean(run["boxes"]),
        "amr.cells": mean(run["cells"]),
        "backend.launches": total_launches / n,
        "backend.points_per_launch": total_points / total_launches,
        "mpi.messages": sum(m[0] for m in messages.values()) / n,
        "mpi.bytes": sum(m[1] for m in messages.values()) / n,
        "runtime.tasks": run["counts"]["tasks"] / n,
        "resilience.step_retries": run["counts"]["step_retries"] / n,
    }
    for cls in ("flux", "fillpatch", "interp"):
        out[f"backend.launches.{cls}"] = (
            launches.get(cls, {}).get("launches", 0) / n)
    for kind in ("parallelcopy", "fillboundary"):
        count, nbytes = messages.get(kind, (0, 0))
        out[f"mpi.messages.{kind}"] = count / n
        out[f"mpi.bytes.{kind}"] = nbytes / n
    return out


def per_layer(untraced: Sequence[dict],
              traced: Sequence[dict]) -> Dict[str, Optional[float]]:
    """The per-layer metrics of one workload.

    Times are mean seconds per step of the span self times, each the
    minimum across the traced runs, summed by the span name they are
    credited to; a metric built on a span that could not be wrapped is
    ``None``.
    """
    trace = traced[0]["trace"]
    nsteps = len(traced[0]["walls"])
    missing = set(trace["missing"])
    by_name = {name: [0.0] * nsteps for name in trace["names"]}
    for k in range(nsteps):
        for j, span_s in zip(trace["credit"][k], segment_minima(traced, k)):
            by_name[trace["names"][j]][k] += span_s

    def self_s(name: str, needs: Sequence[str] = ()) -> float:
        if missing & set(needs or (name,)):
            return math.nan
        return mean(by_name.get(name, [0.0]))

    def calls(name: str) -> float:
        if name in missing:
            return math.nan
        return mean(trace["calls"].get(name, [0]))

    step_s = sum(mean(v) for v in by_name.values())
    fillpatch_s = sum(self_s(n) for n in FILLPATCH_SPANS)
    counts = exact_counts(traced[0])
    out = {
        "core.step_s": step_s,
        "core.step_wall_s": median(
            per_index_min([u["walls"] for u in untraced])),
        "core.step_p90_s": quantiles(
            [w for u in untraced for w in u["walls"]], n=10,
            method="inclusive")[-1],
        "core.unattributed_s": self_s("core.step"),
        "core.closure_frac": 1.0 - mean(by_name.get("core.step", [0.0]))
        / step_s,
        "core.trace_overhead_frac": (
            step_s * nsteps / sum(floor_steps(untraced)) - 1.0),
        "amr.interp_s": self_s("amr.interp"),
        "amr.interp_calls": calls("amr.interp"),
        "amr.parallelcopy_coords_s": self_s("amr.parallelcopy_coords"),
        "amr.fillboundary_nowait_s": self_s("amr.fillboundary_nowait"),
        "amr.fillboundary_finish_s": self_s("amr.fillboundary_finish"),
        "amr.average_down_s": self_s("amr.average_down"),
        "amr.fillpatch_frac": fillpatch_s / step_s,
        "amr.regrid_s": sum(self_s(n) for n in REGRID_SPANS),
        "amr.regrid_tag_s": self_s("amr.regrid_tag"),
        "amr.regrid_remake_s": self_s("amr.regrid_remake"),
        "kernels.rhs_s": self_s("kernels.rhs"),
        "kernels.rhs_calls": calls("kernels.rhs"),
        "kernels.rhs_us_per_cell": (1e6 * self_s("kernels.rhs")
                                    / counts["amr.cells"]),
        "kernels.update_s": self_s("kernels.update"),
        "kernels.max_rate_s": self_s("kernels.max_rate"),
        "numerics.compute_dt_s": self_s("numerics.compute_dt"),
        "cases.bc_fill_s": self_s("cases.bc_fill"),
        "backend.launch_overhead_s": self_s(
            "backend.launch",
            needs=("backend.parallel_for", "backend.reduce_data")),
        "backend.scratch_hit_rate": traced[0]["counts"]["scratch_hit_rate"],
        "runtime.graph_build_s": self_s("runtime.graph_build"),
        "runtime.schedule_overhead_s": self_s("runtime.schedule"),
        "resilience.watchdog_s": self_s("resilience.watchdog"),
    }
    out.update(counts)
    return {k: (None if isinstance(v, float) and math.isnan(v) else v)
            for k, v in out.items()}


def verdict(base: float, new: float, better: str, bound: float) -> str:
    """``better | same | worse``: how ``new`` stands against ``base``
    when the metric may get worse by the share ``bound`` of ``base``."""
    if base == new:
        return "same"
    if base == 0:
        worse_by = math.inf if (new > 0) == (better == "lower") else -math.inf
    else:
        worse_by = (new - base) / abs(base)
        if better == "higher":
            worse_by = -worse_by
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"
