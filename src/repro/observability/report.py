"""Run report: summarize one recorded run's trace + metrics artifacts.

``python -m repro.report <run_dir>`` reads the Chrome trace JSON and
metrics JSONL a recorded run produced and prints:

- a hot-region table (calls, inclusive / exclusive seconds) computed from
  span nesting, the TinyProfiler view reconstructed from artifacts alone;
- the FillPatch split (FillBoundary vs ParallelCopy time, Fig. 7's axis);
- the runtime Overlap section (per-step posted vs finished comm time,
  measured comm/compute overlap, the share of the step spent outside
  any task (idle %), task counts by kind);
- the Bottleneck section (the stage DAGs' critical path and the
  concurrency they offer, task time per kernel class and per compute
  batch);
- a rank-to-rank communication matrix from the recorded ledger traffic;
- a device section (execution-backend launch accounting by kernel class,
  top kernels by modeled charged time) when the run used the device
  target;
- roofline points (arithmetic intensity per memory level, modeled
  achieved flops) from the per-kernel flop/byte totals (Fig. 4's axis);
- the per-timestep metrics trajectory (dt, active cells, ledger bytes).

Works identically on functional runs (wall time) and simulated-Summit
scaling exports (charged time) — the schema is shared.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.observability.metrics import MetricsRegistry
from repro.observability.recorder import METRICS_NAME, TRACE_NAME
from repro.observability.tracer import load_chrome_trace


# -- span analysis ----------------------------------------------------------

class RegionSummary:
    """Aggregated statistics for one span name."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.inclusive = 0.0  # seconds
        self.child = 0.0

    @property
    def exclusive(self) -> float:
        return self.inclusive - self.child


def summarize_spans(events: Sequence[dict]) -> Dict[str, RegionSummary]:
    """Per-name inclusive/exclusive seconds, from span containment.

    Events on each (pid, tid) track are sorted by start time (ties broken
    widest-first) and nested with an interval stack, so a span's direct
    parent accumulates its duration as child time — the same
    inclusive/exclusive decomposition TinyProfiler reports.
    """
    out: Dict[str, RegionSummary] = {}
    tracks: Dict[Tuple[int, int], List[dict]] = defaultdict(list)
    for ev in events:
        if ev.get("ph") == "X":
            tracks[(ev["pid"], ev["tid"])].append(ev)
    for evs in tracks.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: List[dict] = []  # open ancestors
        for ev in evs:
            while stack and ev["ts"] >= stack[-1]["ts"] + stack[-1]["dur"] - 1e-9:
                stack.pop()
            s = out.setdefault(ev["name"], RegionSummary(ev["name"]))
            s.calls += 1
            s.inclusive += ev["dur"] / 1e6
            if stack:
                parent = out.setdefault(
                    stack[-1]["name"], RegionSummary(stack[-1]["name"])
                )
                parent.child += ev["dur"] / 1e6
            stack.append(ev)
    return out


def split_of(events: Sequence[dict], parent: str) -> Dict[str, float]:
    """Seconds of each direct child name under every ``parent`` span."""
    out: Dict[str, float] = {}
    tracks: Dict[Tuple[int, int], List[dict]] = defaultdict(list)
    for ev in events:
        if ev.get("ph") == "X":
            tracks[(ev["pid"], ev["tid"])].append(ev)
    for evs in tracks.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: List[dict] = []
        for ev in evs:
            while stack and ev["ts"] >= stack[-1]["ts"] + stack[-1]["dur"] - 1e-9:
                stack.pop()
            if stack and stack[-1]["name"] == parent:
                out[ev["name"]] = out.get(ev["name"], 0.0) + ev["dur"] / 1e6
            stack.append(ev)
    return out


# -- metrics analysis -------------------------------------------------------

def overlap_rows(records: Sequence[dict]) -> List[dict]:
    """Per-step runtime scheduler statistics (the ``runtime.*`` gauges).

    One row per recorded step that carried runtime data: posted/finished
    comm seconds, compute seconds, measured overlap, idle fraction, and
    task counts by kind.
    """
    rows: List[dict] = []
    for rec in records:
        m = rec["metrics"]
        if "runtime.makespan_s" not in m:
            continue
        row = {"step": rec["step"],
               "posted": m.get("runtime.posted_comm_s", 0.0),
               "finish": m.get("runtime.finish_comm_s", 0.0),
               "compute": m.get("runtime.compute_s", 0.0),
               "overlap": m.get("runtime.overlap_s", 0.0),
               "overlap_frac": m.get("runtime.overlap_frac", 0.0),
               "idle_frac": m.get("runtime.idle_frac", 0.0),
               "tasks": {k.split("runtime.tasks.", 1)[1]: int(v)
                         for k, v in m.items()
                         if k.startswith("runtime.tasks.")}}
        rows.append(row)
    return rows


def final_totals(records: Sequence[dict], prefix: str, depth: int = 0):
    """The final record's cumulative ``<prefix>.*`` gauges, with the
    prefix stripped and the next ``depth`` name parts as nesting levels:
    ``{field: value}`` at depth 0, ``{group: {field: value}}`` at depth 1
    (empty if the run never sampled any)."""
    out: dict = {}
    final = records[-1]["metrics"] if records else {}
    for key, value in final.items():
        if key.startswith(prefix + "."):
            *groups, field = key[len(prefix) + 1:].split(".", depth)
            if len(groups) < depth:
                continue    # a gauge of the prefix itself (kernel.batches)
            node = out
            for group in groups:
                node = node.setdefault(group, {})
            node[field] = value
    return out


def charged_kernel_times(kernels: Dict[str, Dict[str, float]]) -> List[tuple]:
    """(kernel, launches, points, charged seconds) by descending time: the
    V100 seconds of every launch the run's devices priced (the
    simulated-Summit analogue of a per-kernel GPU time profile)."""
    rows = [(name, int(k["launches"]), k.get("points", 0.0), k["seconds"])
            for name, k in kernels.items()
            if k.get("launches") and "seconds" in k]
    rows.sort(key=lambda r: -r[3])
    return rows


def roofline_rows(kernels: Dict[str, Dict[str, float]]) -> List[tuple]:
    """(kernel, flops, roofline point) per kernel: its cumulative counts
    per point placed by the hierarchical roofline."""
    from repro.kernels.counts import KernelBudget
    from repro.machine.roofline import hierarchical_roofline

    rows = []
    for name in sorted(kernels):
        k = kernels[name]
        points, flops = k.get("points", 0.0), k.get("flops", 0.0)
        dram = k.get("dram_bytes", 0.0)
        if not flops or not dram or not k.get("registers"):
            continue
        budget = KernelBudget(name, flops / points, dram / points,
                              k["l2_bytes"] / dram, k["l1_bytes"] / dram,
                              int(k["registers"]))
        rows.append((name, flops, hierarchical_roofline(budget)))
    return rows


# -- rendering --------------------------------------------------------------

def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(n) < 1024 or unit == "TB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024
    return f"{n:.1f}TB"


def format_report(events: Sequence[dict], other: dict,
                  records: Sequence[dict], top: int = 12,
                  max_ranks: int = 8) -> str:
    lines: List[str] = []
    mode = other.get("mode", "wall")
    cfg = other.get("config", {})
    lines.append(f"== run report ({mode} time) ==")
    if cfg:
        lines.append("  " + "  ".join(f"{k}={v}" for k, v in cfg.items()))

    # hot regions
    regions = summarize_spans(
        [e for e in events if e.get("cat") in ("region", "charged")]
    )
    lines.append("")
    lines.append(f"-- hot regions (top {top}) --")
    lines.append(f"{'region':<26s} {'calls':>7s} {'incl[s]':>12s} {'excl[s]':>12s}")
    ordered = sorted(regions.values(), key=lambda s: -s.inclusive)
    for s in ordered[:top]:
        lines.append(f"{s.name:<26s} {s.calls:>7d} {s.inclusive:>12.6f} "
                     f"{max(0.0, s.exclusive):>12.6f}")

    # FillPatch split
    split = split_of(events, "FillPatch")
    if split:
        total = sum(split.values()) or 1.0
        lines.append("")
        lines.append("-- FillPatch split --")
        for name in sorted(split, key=lambda n: -split[n]):
            lines.append(f"{name:<26s} {split[name]:>12.6f}s "
                         f"{split[name] / total:>6.1%}")

    # Regrid split: its phases, and what no phase region covers
    split = split_of(events, "Regrid")
    if "Regrid" in regions:
        total = regions["Regrid"].inclusive
        split["other"] = total - sum(split.values())
        lines.append("regrid split: " + " | ".join(
            f"{name} {split.get(name, 0.0):.6f}s "
            f"{split.get(name, 0.0) / (total or 1.0):.1%}"
            for name in ("ErrorEst", "Cluster", "RemakeLevel", "other")))

    # runtime comm/compute overlap
    orows = overlap_rows(records)
    if orows:
        lines.append("")
        last = orows[-1]
        lines.append("-- overlap (task runtime) --")
        lines.append(f"{'step':>6s} {'posted[s]':>10s} {'finish[s]':>10s} "
                     f"{'compute[s]':>11s} {'overlap[s]':>11s} {'ovl%':>6s} "
                     f"{'idle%':>6s}")
        for row in orows[-top:]:
            lines.append(
                f"{row['step']:>6d} {row['posted']:>10.6f} "
                f"{row['finish']:>10.6f} {row['compute']:>11.6f} "
                f"{row['overlap']:>11.6f} {row['overlap_frac']:>6.1%} "
                f"{row['idle_frac']:>6.1%}")
        totals = {k: sum(r[k] for r in orows)
                  for k in ("posted", "finish", "compute", "overlap")}
        lines.append(
            f"{'total':>6s} {totals['posted']:>10.6f} "
            f"{totals['finish']:>10.6f} {totals['compute']:>11.6f} "
            f"{totals['overlap']:>11.6f}")
        kinds = last["tasks"]
        if kinds:
            lines.append("  tasks/step: " + ", ".join(
                f"{k.replace('_', '-')}={kinds[k]}" for k in sorted(kinds)))
        m = records[-1]["metrics"]
        if "kernel.batches" in m:
            # equal-shape boxes of a level run as one kernel call; CI fails
            # when the AMR deck's boxes stop sharing batches
            lines.append(
                f"  compute batches = {int(m['kernel.batches'])} for "
                f"{int(m['kernel.batch_boxes'])} boxes (grown/valid = "
                f"{m['kernel.batch_grown_cells'] / m['active_cells.total']:.2f})")

    # bottleneck: the stage DAGs' critical path and the run's task time by
    # kernel class and by compute batch, summed over the per-step
    # runtime.* gauges (all derived from the scheduler's task records)
    steps = [r["metrics"] for r in records
             if "runtime.critical_path_s" in r["metrics"]]
    cp = sum(m["runtime.critical_path_s"] for m in steps)
    if cp > 0:
        busy = sum(m.get("runtime.busy_s", 0.0) for m in steps)
        classes: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
        batches: Dict[str, float] = defaultdict(float)
        for m in steps:
            for key, value in m.items():
                if key.startswith("runtime.class."):
                    cls, col = key[len("runtime.class."):].rsplit(".", 1)
                    classes[cls][col == "execute_s"] += value
                elif key.startswith("runtime.batch."):
                    batches[key[len("runtime.batch."):]] += value
        lines.append("")
        lines.append("-- bottleneck (task timing) --")
        lines.append(f"critical path {cp:.4f}s of {busy:.4f}s busy: the "
                     f"stage DAGs offer {busy / cp:.2f}x concurrency")
        lines.append(f"  {'class':<16s} {'count':>6s} {'execute[s]':>10s}")
        for cls in sorted(classes, key=lambda c: -classes[c][1]):
            n, seconds = classes[cls]
            lines.append(f"  {cls:<16s} {int(n):>6d} {seconds:>10.4f}")
        if batches:
            lines.append("per-batch execute cost (load-balance input):")
            cells = [f"{name}={batches[name]:.4f}s"
                     for name in sorted(batches, key=lambda n: -batches[n])]
            for i in range(0, len(cells), 4):
                lines.append("  " + " ".join(cells[i:i + 4]))

    # resilience: injected faults vs recovery actions
    res = final_totals(records, "resilience")
    if res:
        lines.append("")
        lines.append("-- resilience --")
        injected = {k.split("injected.", 1)[1]: int(v)
                    for k, v in res.items() if k.startswith("injected.")}
        if "faults_injected" in res:
            detail = (" (" + ", ".join(f"{k}={injected[k]}"
                                       for k in sorted(injected)) + ")"
                      if injected else "")
            lines.append(f"faults injected      {int(res['faults_injected'])}"
                         f"{detail}")
        for label, key in (
                ("step retries", "step_retries"),
                ("rollbacks", "rollbacks"),
                ("dt halvings", "dt_halvings"),
                ("recovered steps", "recovered_steps"),
                ("NaN detections", "nan_detections"),
                ("autocheckpoints", "autocheckpoints"),
                ("checkpoint failures", "checkpoint_failures"),
                ("restores", "restores"),
        ):
            if key in res:
                lines.append(f"{label:<20s} {int(res[key])}")
        injected_n = int(res.get("faults_injected", 0))
        recovered = (int(res.get("recovered_steps", 0))
                     + int(res.get("checkpoint_failures", 0))
                     + int(res.get("restores", 0)))
        if injected_n:
            lines.append(
                f"outcome: {injected_n} fault(s) injected, "
                f"{recovered} recovery action(s) taken, run completed")

    # comms matrix
    matrix = other.get("comms_matrix")
    if matrix:
        n = len(matrix)
        shown = min(n, max_ranks)
        lines.append("")
        lines.append(f"-- comms matrix (bytes, src rank -> dst rank"
                     + (f", first {shown} of {n} ranks" if shown < n else "")
                     + ") --")
        header = "src\\dst " + " ".join(f"{d:>10d}" for d in range(shown))
        lines.append(header)
        for s in range(shown):
            lines.append(f"{s:>7d} " + " ".join(
                f"{matrix[s][d]:>10d}" for d in range(shown)))
        total_bytes = sum(sum(row) for row in matrix)
        off_diag = sum(matrix[s][d] for s in range(n) for d in range(n) if s != d)
        lines.append(f"  total {_fmt_bytes(total_bytes)} "
                     f"({_fmt_bytes(off_diag)} between distinct ranks)")

    # which WENO combination the run's sweeps ran (and why): last line of
    # the device section, or of the metrics when the target does not account
    impl = other.get("weno_kernel")

    # execution-backend launch accounting (device target)
    kernels = final_totals(records, "kernel", 1)
    classes = final_totals(records, "device.class", 1)
    if classes:
        lines.append("")
        lines.append("-- device (execution-backend launch accounting) --")
        lines.append(f"{'class':<12s} {'launches':>9s} {'points':>12s} "
                     f"{'flops':>12s} {'DRAM bytes':>11s}")
        for cls in sorted(classes):
            c = classes[cls]
            lines.append(
                f"{cls:<12s} {int(c.get('launches', 0)):>9d} "
                f"{c.get('points', 0):>12.4g} {c.get('flops', 0):>12.4g} "
                f"{_fmt_bytes(c.get('dram_bytes', 0)):>11s}")
        total_launches = sum(int(c.get("launches", 0))
                             for c in classes.values())
        lines.append(f"  total launches = {total_launches}")
        charged = charged_kernel_times(kernels)
        if charged:
            lines.append("  top kernels by charged time (V100 model):")
            for name, launches, points, seconds in charged[:5]:
                lines.append(
                    f"    {name:<16s} {seconds * 1e3:>9.3f} ms  "
                    f"({launches} launches, {points:.4g} pts)")
        if impl:
            lines.append("  " + impl)

    # roofline points
    rows = roofline_rows(kernels)
    if rows:
        lines.append("")
        lines.append("-- roofline points (per-kernel cumulative counts) --")
        lines.append(f"{'kernel':<12s} {'flops':>12s} {'AI@DRAM':>8s} "
                     f"{'AI@L2':>7s} {'AI@L1':>7s} {'GF/s(model)':>12s} {'%peak':>6s}")
        for name, flops, rp in rows:
            lines.append(
                f"{name:<12s} {flops:>12.3g} {rp.ai['DRAM']:>8.2f} "
                f"{rp.ai['L2']:>7.2f} {rp.ai['L1']:>7.2f} "
                f"{rp.achieved_flops_per_s / 1e9:>12,.0f} "
                f"{rp.fraction_of_peak:>6.1%}")

    # ledger totals + metrics trajectory
    ledg = final_totals(records, "ledger", 1)
    if ledg:
        lines.append("")
        lines.append("-- ledger traffic by kind --")
        for kind in sorted(ledg):
            k = ledg[kind]
            lines.append(
                f"{kind:<14s} msgs={int(k.get('messages', 0)):>8d} "
                f"bytes={_fmt_bytes(k.get('bytes', 0)):>10s} "
                f"on-node={_fmt_bytes(k.get('on_node_bytes', 0)):>10s} "
                f"off-node={_fmt_bytes(k.get('off_node_bytes', 0)):>10s}"
            )
    if records:
        first, last = records[0], records[-1]
        m = last["metrics"]
        lines.append("")
        lines.append(f"-- metrics: {len(records)} timesteps, "
                     f"steps {first['step']}..{last['step']} --")
        if "dt" in m:
            lines.append(f"  final dt = {m['dt']:.4g}, t = {last['time']:.5g}")
        levels = sorted(k for k in m if k.startswith("active_cells.lev"))
        if levels:
            lines.append("  active cells: " + ", ".join(
                f"{k.split('.')[-1]}={int(m[k])}" for k in levels))
        if "tagged_cells" in m:
            lines.append(f"  tagged cells = {int(m['tagged_cells'])}, "
                         f"regrids = {int(m.get('regrids', 0))}")
        if "amr.regrid_kept_boxes" in m:
            kept, new = (sum(int(r["metrics"].get(f"amr.regrid_{k}_boxes", 0))
                             for r in records) for k in ("kept", "new"))
            lines.append(f"  regrid kept = {kept} of {kept + new} boxes")
        # communication plans and stage graphs are rebuilt only when a
        # regrid replaces the layout they describe; CI fails on a nonzero
        # stray count
        for label, key in (("plan", "amr.plan_builds"),
                           ("graph", "runtime.graph_builds")):
            if key not in m:
                continue
            builds = stray = regrids = 0
            for r in records:
                n = int(r["metrics"].get(key, 0))
                now = r["metrics"].get("regrids", 0)
                builds += n
                stray += n if now == regrids else 0
                regrids = now
            lines.append(f"  {label} builds = {builds} "
                         f"({stray} in steps without a regrid)")
        if "validation.l2_drift" in m:
            lines.append(f"  validation L2 drift = {m['validation.l2_drift']:.3e}")
        if impl and not classes:
            lines.append("  " + impl)
    return "\n".join(lines)


# -- CLI --------------------------------------------------------------------

def load_service_record(run_dir: Optional[str]) -> Optional[dict]:
    """The serve layer's ``run.json`` for a service run directory, if any.

    Returns None for plain ``--record`` directories (no registry record)
    and for torn/unreadable records — the report then renders exactly as
    before the serving layer existed.
    """
    if run_dir is None:
        return None
    path = Path(run_dir) / "run.json"
    if not path.exists():
        return None
    import json

    try:
        rec = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return rec if isinstance(rec, dict) and "state" in rec else None


def service_header(rec: dict) -> str:
    """One context line for a service-submitted run."""
    parts = [f"service run {rec.get('id', '?')} [{rec.get('state', '?')}]"]
    if rec.get("label"):
        parts.append(f"label={rec['label']}")
    if rec.get("reason"):
        parts.append(f"reason={rec['reason']!r}")
    result = rec.get("result") or {}
    if result.get("case"):
        parts.append(f"case={result['case']}")
    if rec.get("latency_s") is not None:
        parts.append(f"latency={rec['latency_s']:.2f}s")
    return "  ".join(parts)


def service_recovery_section(rec: dict) -> Optional[str]:
    """Recovery accounting for a service run; None when uneventful.

    Rendered only when the run's lifecycle shows chaos survived —
    re-dispatches, requeues (drain/orphan reconciliation) or a
    checkpoint resume — so fault-free runs keep their report unchanged.
    """
    result = rec.get("result") or {}
    attempts = int(rec.get("attempts", 0) or 0)
    requeues = int(rec.get("requeues", 0) or 0)
    resumed = bool(result.get("resumed"))
    if attempts <= 1 and not requeues and not resumed:
        return None
    lines = ["-- service recovery --"]
    lines.append(f"  dispatch attempts = {attempts}, requeues = {requeues}")
    if resumed:
        lines.append(
            f"  resumed from checkpoint at step {result.get('resume_step')} "
            f"(replayed {int(result.get('replayed_steps', 0) or 0)} step(s))")
    return "\n".join(lines)


def load_run(run_dir: Optional[str] = None, trace: Optional[str] = None,
             metrics: Optional[str] = None):
    """Resolve and load a run's artifacts; returns (events, other, records)."""
    if run_dir is not None:
        base = Path(run_dir)
        trace = trace or (str(base / TRACE_NAME)
                          if (base / TRACE_NAME).exists() else None)
        metrics = metrics or (str(base / METRICS_NAME)
                              if (base / METRICS_NAME).exists() else None)
    if trace is None and metrics is None:
        raise FileNotFoundError(
            f"no {TRACE_NAME} or {METRICS_NAME} found"
            + (f" under {run_dir}" if run_dir else "")
        )
    events: List[dict] = []
    other: dict = {}
    if trace is not None:
        events, other = load_chrome_trace(trace)
    # tolerant: a run that died mid-write leaves a truncated final line;
    # report everything that is intact instead of refusing to load
    records = (MetricsRegistry.read_jsonl(metrics, tolerant=True)
               if metrics else [])
    return events, other, records


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.report",
        description="Summarize one recorded run (trace.json + metrics.jsonl).",
    )
    parser.add_argument("run_dir", nargs="?", default=None,
                        help="directory holding trace.json / metrics.jsonl")
    parser.add_argument("--trace", default=None, help="explicit trace path")
    parser.add_argument("--metrics", default=None, help="explicit metrics path")
    parser.add_argument("--top", type=int, default=12,
                        help="hot-region rows to print")
    args = parser.parse_args(argv)
    if args.run_dir is None and args.trace is None and args.metrics is None:
        parser.error("give a run directory or --trace/--metrics paths")
    service = load_service_record(args.run_dir)
    try:
        events, other, records = load_run(args.run_dir, args.trace, args.metrics)
    except (FileNotFoundError, ValueError) as exc:
        if service is not None and service.get("state") in ("queued",
                                                            "running"):
            # a service run that hasn't produced artifacts yet is not an
            # error in the artifacts — say what's actually happening
            print(f"error: service run {service.get('id', '?')} is still "
                  f"{service['state']!r}; no metrics recorded yet — "
                  "retry once the run has progressed", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # malformed trace JSON etc. — degrade cleanly
        print(f"error: could not load run artifacts: {exc}", file=sys.stderr)
        return 2
    if not events and not records:
        if service is not None and service.get("state") in ("queued",
                                                            "running"):
            print(f"error: service run {service.get('id', '?')} is still "
                  f"{service['state']!r}; its metrics stream holds no "
                  "complete record yet — retry once the run has "
                  "progressed", file=sys.stderr)
            return 2
        print("error: run artifacts held no usable events or metrics "
              "records (empty or fully truncated files?)", file=sys.stderr)
        return 2
    try:
        if service is not None:
            print(service_header(service))
            recovery = service_recovery_section(service)
            if recovery is not None:
                print(recovery)
        print(format_report(events, other, records, top=args.top))
    except BrokenPipeError:  # e.g. piped into head
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except Exception as exc:  # never traceback at the user: say what broke
        print(f"error: could not render report: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
