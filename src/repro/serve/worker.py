"""One whole simulation run, as a fleet worker executes it.

The fleet (:mod:`repro.serve.fleet`) dispatches runs — not individual
box kernels — onto its shared process pool; each dispatch's payload
names a run directory prepared by the registry and
:func:`execute_serve_run` executes the deck inside the worker process:

- the simulation runs its steps in this process like any other: the
  fleet *is* the parallelism layer (one run per worker lane), and a
  service-submitted run is bitwise identical to the same deck run
  through the CLI;
- metrics stream to the run directory per step, so the HTTP layer can
  report live progress while the run executes;
- per-run step/wall budgets ride the watchdog
  (:class:`~repro.resilience.watchdog.RunBudgetExceeded`) and the
  registry's ``CANCEL`` flag is polled at every step boundary;
- **checkpoint-resume**: every run autocheckpoints into its run
  directory (``autochk/``, crash-safe atomic writes from
  :mod:`repro.io.checkpoint`); a re-dispatched run — worker death,
  service crash, graceful drain — resumes from its last *valid*
  checkpoint instead of replaying from step 0.  With the service
  default ``autocheckpoint_every=1`` a resume replays at most one step,
  and because a checkpoint restores the exact state the trajectory (and
  the final plotfile/checkpoint artifacts) stays bitwise identical to
  an uninterrupted run;
- the registry's ``DRAIN`` flag (graceful shutdown) is polled alongside
  ``CANCEL``: the run saves a fresh checkpoint at the step boundary and
  reports ``suspended`` so the fleet can requeue it for the next
  service generation;
- the terminal summary lands in ``result.json`` (atomic write).  A
  simulation *failure* is a normal result — only worker death (crash,
  kill) leaves no result, which is exactly the condition the fleet
  recovers by re-dispatching the run.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Optional, Tuple

from repro.serve.registry import (CANCEL_NAME, DECK_NAME, DRAIN_NAME,
                                  RESULT_NAME)

#: per-run autocheckpoint directory (inside the run directory)
AUTOCHK_DIR = "autochk"

#: the service's pid (forked workers inherit it and compare unequal), so
#: an injected kill can never take down the service process itself
_DRIVER_PID = os.getpid()

#: artifacts reset before (re-)executing a run; autocheckpoints are
#: deliberately NOT here — they are what a re-dispatch resumes from
_RESETTABLE = ("metrics.jsonl", "trace.json", RESULT_NAME)


class RunCancelled(RuntimeError):
    """The run's CANCEL flag was raised; stop at the step boundary."""


class RunSuspended(RuntimeError):
    """The run's DRAIN flag was raised; checkpointed and handed back."""


def _write_result(run_dir: Path, payload: dict) -> None:
    """Atomically publish ``result.json`` (the run's terminal summary)."""
    fd, tmp = tempfile.mkstemp(dir=run_dir, suffix=".tmp")
    with os.fdopen(fd, "w") as f:
        json.dump(payload, f, indent=1)
    os.replace(tmp, run_dir / RESULT_NAME)


def _reset_artifacts(run_dir: Path) -> None:
    for name in _RESETTABLE:
        try:
            (run_dir / name).unlink()
        except FileNotFoundError:
            pass


def _last_streamed_step(run_dir: Path) -> Optional[int]:
    """The last complete step in the run's metrics stream, if any.

    Read *before* the stream is reopened: this is how many steps the
    previous incarnation finished, so ``last - resume_step`` counts the
    steps a resume re-executes (the replay window).
    """
    path = run_dir / "metrics.jsonl"
    step = None
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return None
    for line in lines:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn final line of a killed writer
        if isinstance(rec, dict) and "step" in rec:
            step = int(rec["step"])
    return step


def find_resume_point(run_dir: Path) -> Optional[Tuple[Path, int, int]]:
    """``(checkpoint, step, replayed_steps)`` for the newest valid
    autocheckpoint under ``run_dir``, or None for a cold start.

    Checkpoints with a torn/unreadable Header are evicted so a corrupt
    newest entry falls back to the previous good one (the per-level
    digests are verified again by ``load_checkpoint`` at restore time).
    """
    base = run_dir / AUTOCHK_DIR
    while True:
        from repro.io.checkpoint import latest_checkpoint

        ck = latest_checkpoint(base)
        if ck is None:
            return None
        try:
            meta = json.loads((ck / "Header").read_text())
            step = int(meta["step"])
        except (OSError, ValueError, KeyError, TypeError):
            shutil.rmtree(ck, ignore_errors=True)
            continue
        last = _last_streamed_step(run_dir)
        replayed = max(0, (last if last is not None else step) - step)
        return ck, step, replayed


def execute_serve_run(spec: dict) -> None:
    """Run one submitted deck to completion inside this process.

    ``spec`` carries ``run_dir`` (holding ``deck.inputs``), the shared
    ``cache_dir``, an optional ``steps`` override, per-run budgets
    (``max_steps`` / ``max_wall_s``), an ``autocheckpoint_every``
    cadence and a ``trace`` flag.  Always returns after writing
    ``result.json`` — simulation failures are results, not exceptions.
    """
    run_dir = Path(spec["run_dir"])
    resume = find_resume_point(run_dir)
    _reset_artifacts(run_dir)
    t0 = time.monotonic()
    base = {"run_id": spec.get("run_id", run_dir.name), "pid": os.getpid()}
    try:
        summary = _run_deck(run_dir, spec, resume)
        summary.update(base)
        summary["wall_s"] = time.monotonic() - t0
        _write_result(run_dir, summary)
    except Exception as exc:  # noqa: BLE001
        # failures become results and must not kill the lane
        _write_result(run_dir, dict(
            base, status="failed",
            reason=f"{type(exc).__name__}: {exc}",
            wall_s=time.monotonic() - t0))


def _run_deck(run_dir: Path, spec: dict,
              resume: Optional[Tuple[Path, int, int]]) -> dict:
    from repro.cli import build_case
    from repro.core.crocco import Crocco
    from repro.io.checkpoint import CheckpointError, load_checkpoint
    from repro.io.inputs import InputDeck
    from repro.resilience.watchdog import RunBudgetExceeded

    every = spec.get("autocheckpoint_every")
    deck = InputDeck.from_file(run_dir / DECK_NAME)
    config, run = deck.resolve({
        "cache_dir": str(spec["cache_dir"]) if spec.get("cache_dir") else None,
        "metrics_out": str(run_dir / "metrics.jsonl"),
        "metrics_stream": True,
        "trace_out": (str(run_dir / "trace.json") if spec.get("trace")
                      else None),
        "step_budget": spec.get("max_steps"),
        "wall_budget_s": spec.get("max_wall_s"),
        # service runs checkpoint into their own directory so a
        # re-dispatch (worker death, server restart) resumes instead of
        # replaying; the default cadence of 1 bounds the replay window to
        # a single step
        "autocheckpoint_every": 1 if every is None else every,
        "autocheckpoint_dir": str(run_dir / AUTOCHK_DIR),
        "steps": spec.get("steps") or None,
    })
    case = build_case(run)
    nsteps, t_end = run.steps, run.time
    cancel_flag = run_dir / CANCEL_NAME
    drain_flag = run_dir / DRAIN_NAME

    # chaos hook: ("kill_step", K) hard-kills this worker process at the
    # step-K boundary — the service-level stand-in for losing a node
    # mid-run (must actually die: never fires when running inline in the
    # service process itself)
    fault = spec.get("_fault")
    kill_at: Optional[int] = None
    if (fault is not None and fault[0] == "kill_step"
            and os.getpid() != _DRIVER_PID):
        kill_at = int(fault[1])

    sim = Crocco(case, config)
    resumed_from: Optional[int] = None
    replayed = 0
    if resume is not None:
        ck, ck_step, replayed = resume
        try:
            load_checkpoint(ck, sim)
            resumed_from = ck_step
            if sim.watchdog is not None:
                # the restore ladder falls back to this checkpoint too
                sim.watchdog.last_good = ck
            sim.resilience.inc("serve_resumes")
            sim.resilience.inc("serve_replayed_steps", replayed)
        except CheckpointError:
            # digest/read failure: evict the bad checkpoint and start
            # clean — a cold replay is slower but always correct
            shutil.rmtree(ck, ignore_errors=True)
            replayed = 0

    status, reason = "done", ""
    try:
        if resumed_from is None:
            sim.initialize()
        try:
            while True:
                if nsteps is not None and sim.step_count >= nsteps:
                    break
                if t_end is not None and sim.time >= t_end:
                    break
                if cancel_flag.exists():
                    raise RunCancelled("cancel requested")
                if drain_flag.exists():
                    raise RunSuspended("drain requested")
                if kill_at is not None and sim.step_count >= kill_at:
                    os._exit(3)
                sim.step()
        except RunCancelled:
            status, reason = "cancelled", "cancelled by request"
        except RunSuspended:
            _suspend_checkpoint(run_dir, sim)
            status = "suspended"
            reason = f"drained to checkpoint at step {sim.step_count}"
        except RunBudgetExceeded as exc:
            status, reason = "cancelled", f"budget exceeded: {exc}"
        if status == "done":
            # terminal artifacts only for completed runs
            if run.plotfile:
                from repro.io.plotfile import write_plotfile

                write_plotfile(_under(run_dir, run.plotfile), sim)
            if run.checkpoint:
                from repro.io.checkpoint import save_checkpoint

                save_checkpoint(_under(run_dir, run.checkpoint), sim)
        if status in ("done", "cancelled"):
            # terminal runs never re-execute: drop the resume scratch so
            # finished runs don't pin disk
            shutil.rmtree(run_dir / AUTOCHK_DIR, ignore_errors=True)
    finally:
        sim.close()

    cache = sim.case_cache
    out = {
        "status": status,
        "reason": reason,
        "case": case.name,
        "steps": sim.step_count,
        "sim_time": sim.time,
        "cache": cache.counters() if cache is not None else {},
        "cache_hit_rate": cache.hit_rate() if cache is not None else None,
    }
    if cache is not None:
        out["cache_evictions"] = cache.eviction_count()
    if resumed_from is not None:
        out["resumed"] = True
        out["resume_step"] = resumed_from
        out["replayed_steps"] = replayed
    return out


def _suspend_checkpoint(run_dir: Path, sim) -> None:
    """Persist the draining run's state at the current step boundary.

    Skipped when the autocheckpoint cadence already saved this exact
    step — the atomic-rename protocol makes a re-save harmless, just
    wasted I/O.
    """
    from repro.io.checkpoint import save_checkpoint

    path = run_dir / AUTOCHK_DIR / f"chk_step{sim.step_count:06d}"
    if not (path / "Header").exists():
        save_checkpoint(path, sim)


def _under(run_dir: Path, path: str) -> str:
    """Resolve a deck-relative output path inside the run directory."""
    p = Path(path)
    return str(p if p.is_absolute() else run_dir / p)
