"""Solver watchdog: per-step validation, rollback/retry, last-good restore.

Production shock solvers survive blown-up steps by retrying them; this
watchdog gives the reproduction the same property.  It owns the advance
of one step:

1. compute ``dt`` and **snapshot** the state hierarchy;
2. run the RK3 advance through the task runtime;
3. **validate** the completed step: the state must be free of NaN/Inf
   and (optionally) the realized CFL rate must not have blown past the
   configured margin;
4. on failure, **roll back** to the snapshot and retry.  The first
   ``RETRY_SAME_DT`` retries re-run the identical step — a transient
   fault retried clean reproduces the fault-free trajectory bit for bit;
   persistent *numerical* failures then escalate by **halving dt** each
   further retry, up to ``max_step_retries``;
5. every ``autocheckpoint_every`` successful steps, write a crash-safe
   checkpoint and remember it as *last good*; when a step exhausts its
   retries, **restore from last good** (at most ``MAX_RESTORES`` times)
   instead of dying.

Every retry/rollback/restore increments the shared
:class:`~repro.resilience.stats.ResilienceStats` and emits a tracer
instant event on recorded runs, so the run report can account for each
injected fault end to end.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.resilience.faults import InjectedFault
from repro.resilience.stats import ResilienceStats


class RunBudgetExceeded(RuntimeError):
    """A run hit its step or wall budget; deliberately NOT retryable.

    The serve layer maps a run's per-run budgets onto the watchdog; when
    a budget is spent this propagates out of :meth:`guarded_advance`
    unmasked (it is not in :data:`RETRYABLE`), so the driver stops at a
    step boundary with a consistent state — budget-exceeded cancellation
    rides the same path as every other watchdog-policed condition.
    """

    def __init__(self, message: str, budget: str = "steps") -> None:
        super().__init__(message)
        #: which budget tripped: ``"steps"`` or ``"wall"``
        self.budget = budget


class StepFailure(RuntimeError):
    """One step's validation failed; carries a retry classification.

    ``kind`` is ``"transient"`` (system fault — retry the identical
    step) or ``"numerical"`` (solver trouble — later retries halve dt).
    """

    def __init__(self, message: str, kind: str = "transient") -> None:
        super().__init__(message)
        self.kind = kind


class UnrecoverableStepError(RuntimeError):
    """A step failed beyond every retry and restore budget."""


#: exception types the watchdog treats as retryable step failures;
#: anything else (a genuine bug) propagates unmasked
RETRYABLE = (StepFailure, InjectedFault)

#: retries that re-run the identical dt before dt-halving kicks in
RETRY_SAME_DT = 1
#: restore-from-last-good budget after a step exhausts its retries
MAX_RESTORES = 2


class StepWatchdog:
    """Guards the advance of a Crocco simulation, one step at a time."""

    def __init__(self, config,
                 stats: Optional[ResilienceStats] = None) -> None:
        #: the run's CroccoConfig: retry budget, spike and CFL thresholds,
        #: autocheckpoint cadence and run budgets are read from it
        self.config = config
        self.stats = stats if stats is not None else ResilienceStats()
        #: path of the most recent successfully written autocheckpoint
        self.last_good: Optional[Path] = None
        self._restores = 0
        #: wall clock anchor, set at the first guarded advance
        self._t0: Optional[float] = None

    # -- budgets -----------------------------------------------------------
    def _check_budget(self, sim) -> None:
        """Raise :class:`RunBudgetExceeded` once a budget is spent.

        Checked *before* a step, so budget overrun always surfaces at a
        step boundary with a consistent, checkpointable state.
        """
        import time as _time

        if self._t0 is None:
            self._t0 = _time.monotonic()
        if (self.config.step_budget is not None
                and sim.step_count >= self.config.step_budget):
            self.stats.inc("budget_cancellations")
            raise RunBudgetExceeded(
                f"step budget exhausted: {sim.step_count} steps "
                f"(budget {self.config.step_budget})", budget="steps")
        if self.config.wall_budget_s is not None:
            elapsed = _time.monotonic() - self._t0
            if elapsed >= self.config.wall_budget_s:
                self.stats.inc("budget_cancellations")
                raise RunBudgetExceeded(
                    f"wall budget exhausted: {elapsed:.1f}s elapsed "
                    f"(budget {self.config.wall_budget_s:g}s)",
                    budget="wall")

    # -- the guarded advance ----------------------------------------------
    def guarded_advance(self, sim) -> None:
        """Advance ``sim`` one step, retrying/rolling back on failure."""
        self._check_budget(sim)
        dt = sim._compute_dt()
        snap = self._snapshot(sim)
        attempt = 0
        trial_dt = dt
        while True:
            try:
                sim._advance(trial_dt)
                self._validate(sim, trial_dt)
                break
            except RETRYABLE as exc:
                attempt += 1
                self.stats.inc("rollbacks")
                self._trace(sim, "StepRollback",
                            {"step": snap["step"], "attempt": attempt,
                             "error": str(exc)})
                if attempt > self.config.max_step_retries:
                    # leave a consistent pre-step state whether we restore
                    # from a checkpoint below or propagate the failure
                    self._restore(sim, snap)
                    self._unrecoverable(sim, exc)
                    return
                self._restore(sim, snap)
                self.stats.inc("step_retries")
                if (getattr(exc, "kind", "transient") == "numerical"
                        and attempt > RETRY_SAME_DT):
                    trial_dt *= 0.5
                    self.stats.inc("dt_halvings")
        if attempt:
            self.stats.inc("recovered_steps")
            self._trace(sim, "StepRecovered",
                        {"step": snap["step"], "retries": attempt})
        self._autocheckpoint(sim)

    # -- validation --------------------------------------------------------
    def _validate(self, sim, dt: float) -> None:
        for lev in range(sim.finest_level + 1):
            mf = sim.state[lev]
            # one pass over the level; the box is looked for (in valid
            # cells only: ghosts may be stale) only when that pass fails
            if np.isfinite(mf.buffer).all():
                continue
            for i, fab in mf:
                if not np.isfinite(fab.valid()).all():
                    self.stats.inc("nan_detections")
                    raise StepFailure(
                        f"non-finite state on level {lev} box {i}",
                        kind="numerical",
                    )
        margin = self.config.cfl_margin
        if margin is not None:
            rate = max(sim.max_rates())
            cfl = (sim.config.cfl if sim.config.cfl is not None
                   else sim.case.cfl)
            if rate > 0 and dt * rate > cfl * margin:
                raise StepFailure(
                    f"CFL violation: dt*rate = {dt * rate:.3g} exceeds "
                    f"{margin:g} x cfl = {cfl * margin:.3g}",
                    kind="numerical",
                )

    # -- snapshot / rollback ----------------------------------------------
    def _snapshot(self, sim) -> Dict:
        """Copy everything the advance mutates (state + scalars).

        ``du`` is not copied: the RK3 advance zeroes it before use, so a
        retry never reads stale increments.
        """
        return {
            "time": sim.time,
            "step": sim.step_count,
            "nhist": len(sim.dt_history),
            "finest": sim.finest_level,
            "state": {lev: sim.state[lev].buffer.copy()
                      for lev in range(sim.finest_level + 1)},
        }

    def _restore(self, sim, snap: Dict) -> None:
        """Write the snapshot back in place."""
        sim.engine.abort_step()
        sim.time = snap["time"]
        sim.step_count = snap["step"]
        del sim.dt_history[snap["nhist"]:]
        for lev, saved in snap["state"].items():
            sim.state[lev].buffer[...] = saved

    # -- unrecoverable path ------------------------------------------------
    def _unrecoverable(self, sim, exc) -> None:
        if self.last_good is not None and self._restores < MAX_RESTORES:
            from repro.io.checkpoint import load_checkpoint

            self._restores += 1
            self.stats.inc("restores")
            sim.engine.abort_step()
            load_checkpoint(self.last_good, sim)
            self._trace(sim, "RestoreFromCheckpoint",
                        {"checkpoint": str(self.last_good),
                         "step": sim.step_count})
            return
        raise UnrecoverableStepError(
            f"step {sim.step_count} failed after "
            f"{self.config.max_step_retries} retries and no restorable "
            "checkpoint remains"
        ) from exc

    # -- autocheckpointing -------------------------------------------------
    def _autocheckpoint(self, sim) -> None:
        if (not self.config.autocheckpoint_every
                or sim.step_count % self.config.autocheckpoint_every):
            return
        from repro.io.checkpoint import save_checkpoint
        from repro.resilience.faults import InjectedCheckpointCrash

        base = Path(self.config.autocheckpoint_dir)
        path = base / f"chk_step{sim.step_count:06d}"
        try:
            save_checkpoint(path, sim)
        except (InjectedCheckpointCrash, OSError) as exc:
            # an interrupted write must not kill the run: the previous
            # last-good checkpoint is still intact (atomic publish)
            self.stats.inc("checkpoint_failures")
            self._trace(sim, "CheckpointFailed",
                        {"checkpoint": str(path), "error": str(exc)})
            return
        self.last_good = path
        self.stats.inc("autocheckpoints")
        kept = sorted(p for p in base.glob("chk_step*") if p.is_dir())
        for old in kept[:-self.config.autocheckpoint_keep]:
            if old != self.last_good:
                shutil.rmtree(old, ignore_errors=True)

    # -- observability -----------------------------------------------------
    def _trace(self, sim, name: str, args: Dict) -> None:
        recorder = getattr(sim, "recorder", None)
        if recorder is not None:
            recorder.tracer.instant(name, rank=0, args=args)
