"""Whole-deck step-time benchmark: end-to-end metrics and a per-layer ledger.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1
    python3 benchmarks/e2e/run.py [--seed S] [--repeats R] [--out F]
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --regen-golden

A closed loop of one: each run is a fresh process (forked by ``child.py``
right after its cold import) that builds one workload from its deck and
steps it; runs of several workloads are interleaved (A B C D, A B C D, ...)
so a noisy minute hits every workload alike.  ``--trace 0`` prints the
end-to-end metrics (tracing off), ``--trace 1`` the per-layer metrics
(every second run traced); without ``--trace`` both are measured.  Every
metric is printed by name with its unit, the final state of every run is
checked, and the last line printed for a workload is one JSON object
``{correct, attempted, failed, metrics}``.  See README.md for what the
numbers mean.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import estimate  # noqa: E402

#: a child pays the cold import once and then forks runs for this long;
#: a new child every few seconds keeps several samples of the import cost
SLICE_S = 8.0
#: shortest slice worth starting: a cold import plus one run
MIN_SLICE_S = 4.0
#: one child must end well inside the 180 s a whole benchmark run may take
CHILD_TIMEOUT_S = 150


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_child(workload: str, seed: int, trace: int, seconds: float,
              cwd: str, extra=()) -> list:
    """One child process; returns the results of the runs it forked.

    Every run gets the child's cold import added to its own times, so
    ``setup_s`` and ``run_s`` are what a fresh ``python -m repro`` pays.
    """
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--seconds", str(seconds), *extra]
    if trace:
        cmd += ["--trace-out", str(OUT / f"trace.{workload}.jsonl")]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"error: run of {workload} exited with status "
                         f"{proc.returncode}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    for run in child["runs"]:
        run["setup_s"] = child["import_s"] + run["init_s"]
        run["run_s"] = child["import_s"] + run["wall_s"]
    return child["runs"]


def measure(workloads, seed: int, trace: int, seconds: float, repeats,
            extra=()):
    """Interleaved rounds of children until the time (or repeat count) is
    used; a round gives every workload one child.

    With ``trace`` set every second run of a child is traced.  Returns
    ``({workload: [plain runs]}, {workload: [traced runs]})``.
    """
    runs = {w: [] for w in workloads}
    deadline = time.perf_counter() + seconds * len(workloads)
    rounds = 0
    with tempfile.TemporaryDirectory(dir=OUT, prefix="cwd-") as cwd:
        while True:
            if repeats is not None:
                if rounds >= repeats:
                    break
                piece = 0.0     # one run (or plain + traced pair) per child
            else:
                left = (deadline - time.perf_counter()) / len(workloads)
                if rounds and left < MIN_SLICE_S:
                    break
                piece = min(SLICE_S, left)
            for w in workloads:
                runs[w] += run_child(w, seed, trace, piece, cwd, extra)
            rounds += 1
    return ({w: [r for r in rs if not r["traced"]] for w, rs in runs.items()},
            {w: [r for r in rs if r["traced"]] for w, rs in runs.items()})


def environment(args) -> dict:
    """What a results file needs to be read later."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        rev = ""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "git_rev": rev or "unknown",
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
    }


def report(workload: str, spec: dict, result: dict) -> None:
    """Print one workload's metrics by name with units, then its JSON line."""
    metrics = {}
    for section in ("end_to_end", "per_layer"):
        if section not in result:
            continue
        for m in spec[section]:
            name, unit = m["name"], m["unit"]
            value = result[section][name]
            metrics[name] = {"value": value, "unit": unit}
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{workload:<18s} {name:<30s} {shown:>12s} {unit}")
    q = result["quality"]
    print(f"{workload:<18s} check.l2_drift = {result['l2_drift']} "
          f"(reference: {result['reference']}), failed_frac = "
          f"{result['failed_frac']:.6g}, repeats = {q['repeats']}, "
          f"repeat_spread = {q['repeat_spread']:.3f}"
          f"{' NOISY' if q['noisy'] else ''}")
    for err in result["errors"]:
        print(f"{workload:<18s} step error: {err}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def run(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    workloads = [args.workload] if args.workload else names
    if args.workload and args.workload not in names:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"options: {', '.join(names)}")
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit("error: src/repro not found — the benchmark "
                         "measures the program in this checkout")
    OUT.mkdir(exist_ok=True)
    env = environment(args)
    extra = ["--steps", str(args.steps)] if args.steps else []
    modes = (0, 1) if args.trace is None else (args.trace,)
    phases = {trace: measure(workloads, args.seed, trace, args.seconds,
                             args.repeats, extra) for trace in modes}
    results = {}
    for w in workloads:
        res = estimate.failures([r for plain, traced in phases.values()
                                 for r in plain[w] + traced[w]])
        if 0 in phases:
            res["end_to_end"] = estimate.end_to_end(phases[0][0][w])
        if 1 in phases:
            res["per_layer"] = estimate.per_layer(phases[1][0][w],
                                                  phases[1][1][w])
        plain = phases[modes[0]][0][w]
        spread = estimate.repeat_spread([r["walls"] for r in plain])
        res["quality"] = {
            "repeats": len(plain),
            "repeat_spread": spread,
            "noisy": (spread > estimate.NOISY_SPREAD
                      or env["loadavg"][0] > env["nproc"]),
        }
        res["counts"] = estimate.exact_counts(plain[0])
        res["stretch"] = plain[0]["stretch"]
        env["numpy"] = plain[0]["numpy"]
        results[w] = res
    for w in workloads:
        report(w, spec, results[w])
    out = Path(args.out) if args.out else OUT / "results.json"
    with open(out, "w") as f:
        json.dump({"env": env, "workloads": results}, f, indent=1)
    return 0


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """B against A: one row per workload x end-to-end metric; 1 on 'worse'."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    rows = [("workload", "metric", "A", "B", "B/A", "bound", "verdict")]
    worse = False
    for w in a["workloads"]:
        if w not in b["workloads"]:
            continue
        wa, wb = a["workloads"][w], b["workloads"][w]
        noisy = wa["quality"]["noisy"] or wb["quality"]["noisy"]
        for m in spec["end_to_end"]:
            va, vb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            v = estimate.verdict(va, vb, m["better"], m["bound"])
            worse |= v == "worse"
            rows.append((w, m["name"], f"{va:.5g}", f"{vb:.5g}",
                         f"{vb / va:.3f}x of A", f"{m['bound']:.0%}",
                         v + (" (noisy)" if noisy else "")))
        # failed_frac has no share to be bounded by: any increase is worse
        fa_, fb_ = wa["failed_frac"], wb["failed_frac"]
        v = "worse" if fb_ > fa_ else "better" if fb_ < fa_ else "same"
        worse |= v == "worse"
        rows.append((w, "failed_frac", f"{fa_:.5g}", f"{fb_:.5g}", "-",
                     "any", v))
        if a["env"]["seed"] == b["env"]["seed"]:
            differ = sorted(k for k in wa["counts"]
                            if wa["counts"][k] != wb["counts"].get(k))
            worse |= bool(differ)
            rows.append((w, "exact counts", "-", "-", "-", "equal",
                         "DIFFER: " + ", ".join(differ) if differ
                         else "identical"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(n) for c, n in zip(r, widths)).rstrip())
    return 1 if worse else 0


def regen_golden(spec: dict) -> int:
    """Write golden/<workload>.seed<k>.npz for the two reference seeds."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="cwd-") as cwd:
        for w in [w["name"] for w in spec["workloads"]]:
            for seed in (0, 1):
                res, = run_child(w, seed, 0, 0.0, cwd, ["--write-golden"])
                print(f"golden/{w}.seed{seed}.npz  steps={res['steps']} "
                      f"sha256={res['check']['sha256'][:16]}")
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all, interleaved)")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 = the canonical deck; others draw the grid "
                             "stretch (goldens exist for 0 and 1)")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="time to measure per workload and trace mode")
    parser.add_argument("--repeats", type=int, default=None,
                        help="fixed number of rounds instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--steps", type=int, default=None,
                        help="override the decks' run.steps (smoke tests)")
    parser.add_argument("--out", default=None,
                        help="results JSON (default: out/results.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)
    if args.regen_golden:
        return regen_golden(spec)
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
