"""The shared worker fleet: many runs, one supervised pool.

One :class:`~repro.resilience.supervisor.SupervisedPoolExecutor` serves
every run the service ever schedules — there is no per-run pool.  Whole
runs travel as ``serve_run`` payloads (see :mod:`repro.serve.worker`)
through the supervisor's dispatch, which buys the serving layer its
whole recovery ladder:

- a worker that dies mid-run is noticed within one wait slice (a stuck
  one misses its deadline), the pool is respawned, and the run is
  re-dispatched — where it **resumes from its last valid
  autocheckpoint** (the worker module checkpoints every
  ``autocheckpoint_every`` steps into the run directory), so a lost
  worker costs at most the replay of one step instead of the whole run;
- after ``max_pool_restarts`` respawns the fleet degrades to inline
  execution in the service process — runs finish slower instead of the
  service dropping traffic;
- a run that fails beyond the retry budget surfaces as
  :class:`~repro.resilience.supervisor.TaskFailedError` and is recorded
  ``failed`` in the registry; queued runs behind it are unaffected;
- :meth:`WorkerFleet.drain` flags every in-flight run to checkpoint and
  suspend at its next step boundary, then requeues it — the graceful
  half of a service restart (the crash half is the registry's orphan
  reconciliation).

A single pump thread owns all executor interaction (claim queued runs
while lanes are free, deliver completions, reconcile failures), so the
supervisor never sees concurrent callers.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Dict, Optional

from repro.resilience.stats import ResilienceStats
from repro.resilience.supervisor import (SupervisedPoolExecutor,
                                         TaskFailedError)
from repro.runtime.executors import _run_payload
from repro.serve.registry import RunRegistry


class _RunTask:
    """The task shape the pool expects (tid/name/payload)."""

    __slots__ = ("tid", "name", "payload")

    def __init__(self, tid: int, name: str, payload: dict) -> None:
        self.tid = tid
        self.name = name
        self.payload = payload


class WorkerFleet:
    """Schedules registry runs onto one shared supervised pool."""

    def __init__(self, registry: RunRegistry, cache_dir,
                 workers: int = 2, task_retries: int = 1,
                 task_timeout: float = 300.0,
                 max_pool_restarts: int = 3,
                 executor: str = "pool",
                 autocheckpoint_every: int = 1,
                 chaos=None) -> None:
        self.registry = registry
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.stats = ResilienceStats()
        if executor not in ("pool", "inline"):
            raise ValueError(
                f"fleet executor must be 'pool' or 'inline', got {executor!r}")
        self.executor_kind = executor
        self.workers = max(1, int(workers))
        #: per-run checkpoint cadence shipped with every dispatch (1 =
        #: every step, bounding a resume's replay to one step; 0 = off)
        self.autocheckpoint_every = int(autocheckpoint_every)
        #: optional :class:`repro.serve.chaos.ServiceFaultInjector`
        self.chaos = chaos
        self.executor = None
        if executor == "pool":
            self.executor = SupervisedPoolExecutor(
                self.workers, task_retries=task_retries,
                task_timeout=task_timeout,
                max_pool_restarts=max_pool_restarts, stats=self.stats)
        #: tid -> run id for every dispatched, undelivered run
        self._active: Dict[int, str] = {}
        self._tid = 0
        #: dispatch counter (chaos plans address "the Nth dispatched run")
        self._dispatches = 0
        #: test hook: a fault marker planted on the next dispatched run
        #: (e.g. ``("kill",)`` simulates a worker dying mid-run)
        self.fault_next: Optional[tuple] = None
        #: aggregated cache counters shipped back by finished runs
        self.cache_totals: Dict[str, Dict[str, int]] = {}
        self.cache_evictions = 0
        #: recovery accounting aggregated from finished runs' results
        self.resumes = 0
        self.replayed_steps = 0
        self.suspended_runs = 0
        self._done_runs = 0
        self._draining = False
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "WorkerFleet":
        self._thread = threading.Thread(target=self._pump, daemon=True,
                                        name="fleet-pump")
        self._thread.start()
        return self

    def drain(self, grace_s: float = 30.0) -> bool:
        """Flag every in-flight run to checkpoint + suspend; wait for it.

        New claims stop immediately; each running run sees its ``DRAIN``
        flag at the next step boundary, saves a crash-safe checkpoint
        into its run directory and reports ``suspended``, which the pump
        maps back to ``queued`` (resumable by the next service
        generation).  Returns True when every lane emptied within the
        grace window.
        """
        self._draining = True
        for run_id in list(self._active.values()):
            self.registry.request_drain(run_id)
        t_end = time.monotonic() + grace_s
        while self._active and time.monotonic() < t_end:
            time.sleep(0.02)
        return not self._active

    def stop(self, timeout: float = 10.0, abandon: bool = False) -> None:
        """Shut the fleet down.

        In-flight runs are requeued (they resume from their last
        checkpoint when a fleet next picks them up) — unless ``abandon``
        is set, the chaos harness's stand-in for a hard service crash:
        records are left ``running`` on disk exactly as ``kill -9``
        would, for the next generation's orphan reconciliation to find.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        if self.executor is not None:
            self.executor.shutdown()
        if not abandon:
            for tid, run_id in list(self._active.items()):
                self.registry.requeue(
                    run_id, reason="fleet stopped mid-run; requeued")
        self._active.clear()

    @property
    def degraded(self) -> bool:
        return bool(getattr(self.executor, "degraded", False))

    @property
    def draining(self) -> bool:
        return self._draining

    def lanes_busy(self) -> int:
        return len(self._active)

    # -- the pump thread ---------------------------------------------------
    def _pump(self) -> None:
        while not self._stop.is_set():
            dispatched = self._fill_lanes()
            if self.executor is None:
                # inline fleet (no pool): _fill_lanes already ran the run
                if not dispatched:
                    time.sleep(0.02)
                continue
            if not self._active:
                time.sleep(0.02)
                continue
            try:
                self.executor.wait_one(timeout=0.25)
            except queue.Empty:
                continue
            except TaskFailedError as exc:
                # the supervisor dropped the entry before raising; find
                # which run(s) it abandoned and record the failure
                self._reconcile(str(exc))

    def _fill_lanes(self) -> int:
        """Claim queued runs while lanes are free; returns claims made."""
        if self._draining:
            return 0
        claimed = 0
        limit = self.workers if self.executor is not None else 1
        while len(self._active) < limit:
            rec = self.registry.claim_next()
            if rec is None:
                break
            self._dispatch_run(rec)
            claimed += 1
        return claimed

    def _dispatch_run(self, rec) -> None:
        payload = {
            "op": "serve_run",
            "run_id": rec.id,
            "run_dir": str(self.registry.run_dir(rec.id)),
            "cache_dir": self.cache_dir,
            "steps": rec.steps,
            "max_steps": rec.max_steps,
            "max_wall_s": rec.max_wall_s,
            "trace": rec.trace,
            "autocheckpoint_every": self.autocheckpoint_every,
        }
        self._dispatches += 1
        if self.fault_next is not None:
            payload["_fault"] = self.fault_next
            self.fault_next = None
        elif self.chaos is not None:
            fault = self.chaos.fault_for_dispatch(
                self._dispatches, rec.id, registry=self.registry,
                cache_dir=self.cache_dir)
            if fault is not None:
                payload["_fault"] = fault
        self._tid += 1
        task = _RunTask(self._tid, f"run:{rec.id}", payload)
        self._active[task.tid] = rec.id
        if self.executor is None:
            self._run_task_inline(task)
            return
        try:
            self.executor.submit(task, self._on_done)
        except Exception as exc:  # pool refused (e.g. no fork): run inline
            self._active.pop(task.tid, None)
            self.registry.finish(rec.id, "failed",
                                 reason=f"dispatch failed: {exc}")

    def _run_task_inline(self, task: _RunTask) -> None:
        """Inline fleet mode: execute the run in the service process."""
        try:
            _run_payload(dict(task.payload))
        except Exception as exc:
            run_id = self._active.pop(task.tid, None)
            if run_id is not None:
                self.registry.finish(run_id, "failed", reason=str(exc))
            return
        self._on_done(task, 0, 0.0)

    # -- completion handling ------------------------------------------------
    def _on_done(self, task, worker, dur) -> None:
        run_id = self._active.pop(task.tid, None)
        if run_id is None:  # pragma: no cover - stale duplicate delivery
            return
        result = self.registry.read_result(run_id)
        if result is None:
            # the task "completed" but left no result: treat as failed
            self.registry.finish(run_id, "failed",
                                 reason="run finished without a result")
            return
        status = result.get("status", "failed")
        if status == "suspended":
            # drained to a checkpoint: back to the queue, resumable
            self.suspended_runs += 1
            self._merge_recovery(result)
            self.registry.requeue(run_id, reason=result.get("reason", ""))
            return
        state = status if status in ("done", "failed", "cancelled") else "failed"
        # the terminal state is published last: whoever reads it sees the
        # recovery accounting (attempts, resumes) that belongs to it
        self._merge_recovery(result)
        self._done_runs += 1
        self.registry.finish(run_id, state, reason=result.get("reason", ""),
                             worker=int(worker), result=result)

    def _reconcile(self, reason: str) -> None:
        """Mark runs the supervisor abandoned (retry budget spent) failed."""
        inflight = getattr(self.executor, "_inflight", {})
        for tid in [t for t in self._active if t not in inflight]:
            run_id = self._active.pop(tid)
            # a result may still exist if the final inline attempt wrote
            # one before the supervisor gave up; prefer it
            result = self.registry.read_result(run_id)
            if result is not None and result.get("status") in (
                    "done", "failed", "cancelled"):
                self._merge_recovery(result)
                self.registry.finish(run_id, result["status"],
                                     reason=result.get("reason", ""),
                                     result=result)
            else:
                self.registry.finish(run_id, "failed", reason=reason)

    def _merge_recovery(self, result: dict) -> None:
        """Fold one result's cache + recovery counters into the totals."""
        for kind, c in (result.get("cache") or {}).items():
            acc = self.cache_totals.setdefault(kind, {"hits": 0, "misses": 0})
            acc["hits"] += int(c.get("hits", 0))
            acc["misses"] += int(c.get("misses", 0))
        self.cache_evictions += int(result.get("cache_evictions", 0))
        if result.get("resumed"):
            self.resumes += 1
            self.replayed_steps += int(result.get("replayed_steps", 0))
            # a resume proves the supervisor re-dispatched the run (the
            # supervisor itself offers no resubmit hook): reflect the
            # extra attempt on the record
            run_id = result.get("run_id")
            if run_id:
                self.registry.note_resubmit(run_id)

    # -- stats -------------------------------------------------------------
    def cache_hit_rate(self) -> Optional[float]:
        h = sum(c["hits"] for c in self.cache_totals.values())
        m = sum(c["misses"] for c in self.cache_totals.values())
        return h / (h + m) if (h + m) else None

    def snapshot(self) -> dict:
        return {
            "workers": self.workers,
            "executor": self.executor_kind,
            "busy": self.lanes_busy(),
            "degraded": self.degraded,
            "draining": self._draining,
            "completed_runs": self._done_runs,
            "resumes": self.resumes,
            "replayed_steps": self.replayed_steps,
            "suspended_runs": self.suspended_runs,
            "resilience": {k: v for k, v in self.stats.counters.items() if v},
            "cache": self.cache_totals,
            "cache_evictions": self.cache_evictions,
            "cache_hit_rate": self.cache_hit_rate(),
        }
