"""Benchmark runs of one workload, each in a process of its own: build
the case from its deck, time set-up and every ``Crocco.step()``, check
the final state, and print one JSON object as the last line of stdout.

This process pays the cold ``import repro`` once (timed), then forks one
process per run until its time slice is used: every run starts from the
same just-imported state, so caches and peak RSS never leak from one run
into the next, and no run waits 0.7 s for scipy to import again — on a
host this noisy the estimator needs every repeat it can get (see
estimate.py).  It can also be run by hand::

    python3 benchmarks/e2e/child.py --workload dmr_amr_v20 --seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: seed 0 is the canonical deck (the DMR case's default grid stretch);
#: any other seed draws the stretch amplitude from this range, narrow
#: enough that the mesh — and so the work per step — stays comparable
#: across seeds while every coordinate, metric and state value differs
CANONICAL_STRETCH = 0.12
STRETCH_RANGE = (0.1191, 0.1201)

#: the paper's port criterion: relative L2 drift of the solution
L2_TOLERANCE = 1e-7

#: glibc malloc settings that keep freed NumPy temporaries in the heap for
#: reuse (no mmap per large array, no trim back to the OS).  On a shared
#: VM the cost of a page fault on fresh memory depends on the host: with
#: the defaults dmr3d_uniform (~77,000 faults/step) swung +-10% between
#: back-to-back runs, pinned (~1,100 faults/step) +-2%.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(1 << 30),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_TOP_PAD_": str(64 << 20),
}


def stretch_for(seed: int) -> float:
    """The grid-stretch amplitude of a seed (the only generated input)."""
    if seed == 0:
        return CANONICAL_STRETCH
    return random.Random(seed).uniform(*STRETCH_RANGE)


def golden_path(workload: str, seed: int) -> Path:
    return HERE / "golden" / f"{workload}.seed{seed}.npz"


def clean_environment() -> None:
    """Make the run independent of the caller's environment.

    ``REPRO_BACKEND`` / ``REPRO_EXECUTOR`` / ``REPRO_WORKERS`` /
    ``REPRO_FAULTS`` silently change ``CroccoConfig`` defaults, the fused
    target would JIT when numba happens to be installed, and BLAS/OpenMP
    pools add threads the serial step path never asked for.  Must run
    before numpy or repro is imported.  The allocator reads its settings
    when the process starts, so a process started without them replaces
    itself once.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_FUSED_JIT"] = "off"
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        os.environ.update(MALLOC_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])


def install_launch_marks(marks: list) -> None:
    """Append a timestamp to ``marks`` at every execution-backend launch.

    This is the only thing a plain (untraced) run adds to the program: the
    launch seam cuts a step into segments short enough that some repeat
    runs each of them undisturbed (see estimate.py).  One clock read and
    one append per launch, ~0.5 us against launches of >= 50 us.
    """
    try:
        from repro.backend.launch import ExecutionBackend
        launch = ExecutionBackend.parallel_for
    except (ImportError, AttributeError):
        print("warning: ExecutionBackend.parallel_for not found; steps are "
              "timed whole", file=sys.stderr)
        return
    clock = time.perf_counter

    def parallel_for(self, *args, **kwargs):
        marks.append(clock())
        return launch(self, *args, **kwargs)

    ExecutionBackend.parallel_for = parallel_for


def level0_state(sim):
    """The level-0 conserved state assembled into one global array."""
    import numpy as np

    domain = sim.geoms[0].domain
    mf = sim.state[0]
    out = np.full((mf.ncomp,) + tuple(domain.shape()), np.nan)
    lo = domain.lo.tup()
    for _, fab in mf:
        sl = tuple(slice(b - o, e - o + 1) for b, e, o in
                   zip(fab.box.lo.tup(), fab.box.hi.tup(), lo))
        out[(slice(None),) + sl] = fab.valid()
    return out


def check_state(sim, workload: str, seed: int, steps: int, golden: bool):
    """Final-state check: invariants always, L2 drift against the golden
    when ``golden`` is set and one exists for this workload and seed.

    Returns ``(check, state)``: the verdict and the level-0 array it is
    about.
    """
    import numpy as np

    state = level0_state(sim)
    lay, eos = sim.case.layout, sim.case.eos
    rho = state[lay.rho_s].sum(axis=0)
    finite = bool(np.isfinite(state).all())
    positive = finite and bool((rho > 0).all()) and bool(
        (eos.primitives(lay, state)[2] > 0).all())
    check = {
        "finite": finite,
        "positive": positive,
        "sha256": hashlib.sha256(np.ascontiguousarray(state)).hexdigest(),
        "reference": "none",
        "l2_drift": None,
    }
    path = golden_path(workload, seed)
    if golden and path.exists():
        with np.load(path) as ref:
            if int(ref["steps"]) != steps or ref["state"].shape != state.shape:
                raise SystemExit(f"{path.name} was written for another run "
                                 "length or mesh; run --regen-golden")
            gold = ref["state"]
        axes = tuple(range(1, state.ndim))
        num = np.sqrt(((state - gold) ** 2).sum(axis=axes))
        den = np.sqrt((gold ** 2).sum(axis=axes))
        # a variable that is identically zero (spanwise momentum in the
        # 3D case) can only be compared absolutely
        drift = np.where(den > 0, num / np.where(den > 0, den, 1.0), num)
        check["reference"] = path.name
        check["l2_drift"] = float(drift.max()) if finite else float("inf")
    check["ok"] = positive and (check["l2_drift"] is None
                                or check["l2_drift"] <= L2_TOLERANCE)
    return check, state


def one_run(args, trace: int) -> dict:
    """Build, initialize, step and check one simulation (in a forked
    process: whatever this patches or caches dies with it)."""
    from repro.cases.dmr import DoubleMachReflection
    from repro.core.crocco import Crocco
    from repro.io.inputs import InputDeck
    import numpy as np

    t_start = time.perf_counter()
    deck = InputDeck.from_file(HERE / "decks" / f"{args.workload}.inputs")
    config = deck.to_crocco_config()
    steps = args.steps if args.steps is not None else deck.get_int("run.steps")
    case = DoubleMachReflection(
        ncells=tuple(deck.domain_cells()),
        curvilinear=deck.get_bool("crocco.curvilinear", False),
        stretch=stretch_for(args.seed))

    recorder, missing, marks = None, [], []
    if trace:
        import spans

        recorder = spans.Recorder()
        missing, _ = spans.install(recorder, type(case))
    else:
        install_launch_marks(marks)

    sim = Crocco(case, config)
    sim.initialize()
    init_s = time.perf_counter() - t_start

    launches0 = sim.exec_backend.class_totals()
    messages0 = sim.comm.ledger.by_kind()
    walls, segments, cells, boxes = [], [], [], []
    error = None
    for _ in range(steps):
        del marks[:]
        t0 = time.perf_counter()
        try:
            sim.step()
        except Exception as exc:  # a failed step is a result, not a crash
            error = f"{type(exc).__name__}: {exc}"
            break
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        edges = [t0, *marks, t1]
        segments.append([b - a for a, b in zip(edges, edges[1:])])
        cells.append(sim.num_active_pts())
        boxes.append(sum(len(ba) for ba in sim.box_arrays if ba is not None))
    sim.close()
    wall_s = time.perf_counter() - t_start

    resilience = sim.resilience.as_dict()
    check, state = check_state(sim, args.workload, args.seed, steps,
                               golden=args.steps is None
                               and not args.write_golden)
    if args.write_golden:
        np.savez_compressed(golden_path(args.workload, args.seed),
                            state=state, steps=steps,
                            stretch=stretch_for(args.seed))
    if error is not None or not check["ok"]:
        failed = steps  # a run that ends wrong fails every step it made
    else:
        # steps the watchdog had to retry, or restore from a checkpoint
        failed = resilience["recovered_steps"] + resilience["restores"]

    launches = {
        cls: {f: tot[f] - launches0.get(cls, {}).get(f, 0)
              for f in ("launches", "points")}
        for cls, tot in sim.exec_backend.class_totals().items()}
    messages = {
        kind: [n - messages0.get(kind, (0, 0))[0],
               nbytes - messages0.get(kind, (0, 0))[1]]
        for kind, (n, nbytes) in sim.comm.ledger.by_kind().items()}
    scratch = getattr(sim.exec_backend, "scratch_stats", dict)()
    result = {
        "traced": bool(trace),
        "stretch": stretch_for(args.seed),
        "numpy": np.__version__,
        "steps": steps,
        "failed": failed,
        "error": error,
        "init_s": init_s,      # deck -> end of initialize()
        "wall_s": wall_s,      # deck -> after close()
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "walls": walls,
        # each step cut into pieces that sum to its wall: launch-to-launch
        # intervals in a plain run, span self times in a traced one
        "segments": segments,
        "cells": cells,
        "boxes": boxes,
        "check": check,
        # exact counts over the stepped part of the run (set-up excluded)
        "counts": {
            "launches": launches,
            "messages": messages,
            "tasks": sum(sim.engine.total_report.tasks_by_kind.values()),
            "regrids": sim.regrid_count,
            "step_retries": resilience["step_retries"],
            "scratch_hit_rate": scratch.get("hit_rate", 0.0),
        },
    }
    if recorder is not None:
        result["trace"] = spans.ledger(recorder.spans, len(walls))
        result["trace"]["missing"] = missing
        result["segments"] = result["trace"].pop("self_s")
        if args.trace_out:
            spans.write_jsonl(recorder.spans, args.trace_out)
    return result


def forked(fn, *args) -> dict:
    """``fn(*args)`` in a forked process; its result comes back as JSON."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            with os.fdopen(wfd, "w") as out:
                json.dump(fn(*args), out)
            status = 0
        finally:
            # never return into the parent's stack, whatever happened
            sys.stderr.flush()
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd) as src:
        data = src.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise SystemExit(f"error: a run of the benchmark died "
                         f"(wait status {status})")
    return json.loads(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep starting runs while they fit into this "
                             "many seconds (default: one run)")
    parser.add_argument("--steps", type=int, default=None,
                        help="override the deck's run.steps (smoke tests; "
                             "skips the golden comparison)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: every second run is traced")
    parser.add_argument("--trace-out", default=None,
                        help="write the spans of a traced run to this JSONL")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    clean_environment()
    sys.path.insert(0, str(ROOT / "src"))
    t_start = time.perf_counter()
    import repro.cases.dmr    # noqa: F401  (what one_run imports, paid once)
    import repro.core.crocco  # noqa: F401
    import repro.io.inputs    # noqa: F401
    import_s = time.perf_counter() - t_start

    runs, longest = [], 0.0
    while True:
        t0 = time.perf_counter()
        runs.append(forked(one_run, args, 0))
        if args.trace:
            runs.append(forked(one_run, args, 1))
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - t_start + longest > args.seconds:
            break
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "import_s": import_s, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
