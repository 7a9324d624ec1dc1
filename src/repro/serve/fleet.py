"""The shared worker fleet: many runs, one supervised process pool.

One persistent ``multiprocessing`` pool (fork start method, forked
lazily on the first dispatch so it snapshots a fully built service)
serves every run the service ever schedules — there is no per-run pool.
A worker executes a whole run, :func:`repro.serve.worker.execute_serve_run`,
and the fleet supervises it:

- a worker that dies mid-run is noticed within one wait slice
  (<= 0.25 s: every slice checks the exit status of the processes the
  pool forked); a stuck one misses its deadline (``task_timeout``);
- on a lost run the whole pool is terminated, then respawned lazily —
  never joined forever, so a merely slow worker can never finish *after*
  its replacement and write the run's artifacts twice; completions that
  landed before the respawn are delivered first, so finished work is
  never re-run;
- a lost run is re-dispatched with capped exponential backoff, and it
  **resumes from its last valid autocheckpoint** (the worker checkpoints
  every ``autocheckpoint_every`` steps into the run directory), so a
  lost worker costs at most the replay of one step; every re-dispatch is
  counted on the run's record (``attempts``);
- a run whose worker raised is retried ``task_retries`` times in the
  pool, then recorded ``failed`` with the error; queued runs behind it
  are unaffected;
- after ``max_pool_restarts`` respawns the fleet degrades to inline
  execution in the service process — runs finish slower instead of the
  service dropping traffic.  ``workers=0`` is a fleet that starts out
  degraded (for platforms without fork);
- :meth:`WorkerFleet.drain` flags every in-flight run to checkpoint and
  suspend at its next step boundary, then requeues it — the graceful
  half of a service restart (the crash half is the registry's orphan
  reconciliation).

One pump thread does all of it (claim queued runs while lanes are free,
wait for completions, recover lost runs), so the pool never sees
concurrent callers.  Every recovery action is counted in
:attr:`WorkerFleet.stats` (``task_retries``, ``task_resubmits``,
``pool_restarts``, ``degraded_to_serial``).
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.resilience.stats import ResilienceStats
from repro.serve import RETRY_BACKOFF, capped_backoff
from repro.serve.registry import RunRegistry
from repro.serve.worker import execute_serve_run


@dataclass
class _InFlight:
    """One dispatched, undelivered run."""

    payload: dict
    attempt: int = 1
    #: monotonic time past which the run is presumed lost (pool only)
    deadline: float = float("inf")


class WorkerFleet:
    """Schedules registry runs onto one shared supervised pool."""

    def __init__(self, registry: RunRegistry, cache_dir,
                 workers: int = 2, task_retries: int = 1,
                 task_timeout: float = 300.0,
                 max_pool_restarts: int = 3,
                 autocheckpoint_every: int = 1,
                 chaos=None) -> None:
        self.workers = int(workers)
        if self.workers < 0:
            raise ValueError(f"fleet workers must be >= 0, got {workers}")
        if (self.workers
                and "fork" not in multiprocessing.get_all_start_methods()):
            raise RuntimeError("the fleet's process pool needs the 'fork' "
                               "start method; use workers=0 (inline)")
        self.registry = registry
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.task_retries = int(task_retries)
        self.task_timeout = float(task_timeout)
        self.max_pool_restarts = int(max_pool_restarts)
        self.stats = ResilienceStats()
        #: per-run checkpoint cadence shipped with every dispatch (1 =
        #: every step, bounding a resume's replay to one step; 0 = off)
        self.autocheckpoint_every = int(autocheckpoint_every)
        #: optional :class:`repro.serve.chaos.ServiceFaultInjector`
        self.chaos = chaos
        self._degraded = self.workers == 0
        self._pool = None
        #: the pool's worker processes as forked (a replacement the pool
        #: spawns for a dead one is not tracked: any death respawns all)
        self._procs: list = []
        #: ``(run_id, attempt, exc)`` from the pool's callback thread
        self._done: "queue.Queue" = queue.Queue()
        self._worker_ids: Dict[int, int] = {}  # pid -> stable small index
        #: run id -> its dispatch, for every dispatched, undelivered run
        self._inflight: Dict[str, _InFlight] = {}
        #: dispatch counter (chaos plans address "the Nth dispatched run")
        self._dispatches = 0
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
        for run_id in list(self._inflight):
            self.registry.request_drain(run_id)
        t_end = time.monotonic() + grace_s
        while self._inflight and time.monotonic() < t_end:
            time.sleep(0.02)
        return not self._inflight

    def stop(self, timeout: float = 10.0, abandon: bool = False) -> None:
        """Shut the fleet down (idempotent); every worker is terminated.

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
        self._terminate_pool()
        if not abandon:
            for run_id in list(self._inflight):
                self.registry.requeue(
                    run_id, reason="fleet stopped mid-run; requeued")
        self._inflight.clear()

    @property
    def degraded(self) -> bool:
        return self._degraded

    @property
    def draining(self) -> bool:
        return self._draining

    def lanes_busy(self) -> int:
        return len(self._inflight)

    # -- the pump thread ---------------------------------------------------
    def _pump(self) -> None:
        while not self._stop.is_set():
            claimed = self._fill_lanes()
            if self._inflight:
                self._wait_slice()
            elif not claimed:
                time.sleep(0.02)

    def _fill_lanes(self) -> int:
        """Claim queued runs while lanes are free; returns claims made."""
        if self._draining:
            return 0
        claimed = 0
        while len(self._inflight) < max(1, self.workers):
            rec = self.registry.claim_next()
            if rec is None:
                break
            self._start_run(rec)
            claimed += 1
        return claimed

    def _start_run(self, rec) -> None:
        payload = {
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
        if self.chaos is not None:
            fault = self.chaos.fault_for_dispatch(
                self._dispatches, rec.id, registry=self.registry,
                cache_dir=self.cache_dir)
            if fault is not None:
                payload["_fault"] = fault
        self._inflight[rec.id] = entry = _InFlight(payload)
        try:
            self._dispatch(rec.id, entry)
        except Exception as exc:  # the pool refused (e.g. out of processes)
            self._fail(rec.id, f"dispatch failed: {exc}")

    def _dispatch(self, run_id: str, entry: _InFlight) -> None:
        """Send one in-flight run to the pool, or run it inline."""
        if self._degraded:
            self._run_inline(run_id, entry)
            return
        pool = self._ensure_pool()
        entry.deadline = time.monotonic() + self.task_timeout
        att = entry.attempt

        def _cb(_result, run_id=run_id, att=att):
            self._done.put((run_id, att, None))

        def _err(exc, run_id=run_id, att=att):
            self._done.put((run_id, att, exc))

        pool.apply_async(execute_serve_run, (entry.payload,),
                         callback=_cb, error_callback=_err)

    def _redispatch(self, run_id: str, entry: _InFlight) -> None:
        """Dispatch a run again, counted on its record: after capped
        backoff, or inline once a lost run is out of pool retries."""
        entry.attempt += 1
        self.registry.note_resubmit(run_id)
        # one-shot injected faults don't survive a retry: the fault
        # modelled a transient failure of the *first* execution
        entry.payload.pop("_fault", None)
        if entry.attempt > self.task_retries + 1:
            self._run_inline(run_id, entry)  # finish it rather than loop
            return
        time.sleep(capped_backoff(*RETRY_BACKOFF, entry.attempt - 2))
        self._dispatch(run_id, entry)

    def _run_inline(self, run_id: str, entry: _InFlight) -> None:
        """Execute the run in the service process (a degraded or
        ``workers=0`` fleet, or a lost run out of pool retries): always
        completes or fails, never hangs."""
        try:
            execute_serve_run(entry.payload)
        except Exception as exc:
            self._fail(run_id, f"run failed inline: {exc}")
            return
        self._inflight.pop(run_id, None)
        self._on_done(run_id)

    def _fail(self, run_id: str, reason: str) -> None:
        self._inflight.pop(run_id, None)
        self.registry.finish(run_id, "failed", reason=reason)

    # -- the pool ----------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            before = set(multiprocessing.active_children())
            self._pool = multiprocessing.get_context("fork").Pool(
                processes=self.workers)
            self._procs = [p for p in multiprocessing.active_children()
                           if p not in before]
        return self._pool

    def _worker_died(self) -> bool:
        """True once any worker the pool forked has exited: whatever it
        was running will never complete."""
        return any(p.exitcode is not None for p in self._procs)

    def _terminate_pool(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._procs = []

    def _wait_slice(self) -> None:
        """Wait (<= 0.25 s) for one completion; recover lost runs when a
        worker died or a deadline passed."""
        deadline = min(e.deadline for e in self._inflight.values())
        try:
            item = self._done.get(
                timeout=max(0.005, min(deadline - time.monotonic(), 0.25)))
        except queue.Empty:
            if self._worker_died() or time.monotonic() >= deadline:
                self._recover_lost()
            return
        self._handle(*item)

    def _handle(self, run_id: str, att: int, exc) -> None:
        """Process one completion from the pool."""
        entry = self._inflight.get(run_id)
        if entry is None or entry.attempt != att:
            return  # stale: an earlier attempt already superseded
        if exc is None:
            del self._inflight[run_id]
            self._on_done(run_id)
        elif entry.attempt <= self.task_retries:
            self.stats.inc("task_retries")
            self._redispatch(run_id, entry)
        else:
            self._fail(run_id, f"run failed after {entry.attempt} "
                               f"attempt(s): {exc}")

    def _recover_lost(self) -> None:
        """A worker died or a deadline expired: respawn the pool and
        re-dispatch every run it lost."""
        # kill the pool first: after terminate+join no callback thread is
        # alive, so the queue drain below sees every completion that will
        # ever arrive — anything still in flight is definitively lost
        self._terminate_pool()
        drained = []
        while True:
            try:
                drained.append(self._done.get_nowait())
            except queue.Empty:
                break
        restarts = self.stats.inc("pool_restarts")
        if not self._degraded and restarts > self.max_pool_restarts:
            self._degraded = True
            self.stats.inc("degraded_to_serial")
        lost = {rid: e.attempt for rid, e in self._inflight.items()}
        for item in drained:
            self._handle(*item)
        for run_id, entry in list(self._inflight.items()):
            if lost.get(run_id) != entry.attempt:
                continue  # delivered or retried by the drain above
            self.stats.inc("task_resubmits")
            self._redispatch(run_id, entry)

    # -- completion handling ------------------------------------------------
    def _on_done(self, run_id: str) -> None:
        result = self.registry.read_result(run_id)
        if result is None:
            # the run "completed" but left no result: treat as failed
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
        pid = result.get("pid")
        worker = (0 if pid in (None, os.getpid()) else
                  self._worker_ids.setdefault(pid, len(self._worker_ids) + 1))
        # the terminal state is published last: whoever reads it sees the
        # recovery accounting (resumes, replayed steps) that belongs to it
        self._merge_recovery(result)
        self._done_runs += 1
        self.registry.finish(run_id, state, reason=result.get("reason", ""),
                             worker=worker, result=result)

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

    # -- stats -------------------------------------------------------------
    def cache_hit_rate(self) -> Optional[float]:
        h = sum(c["hits"] for c in self.cache_totals.values())
        m = sum(c["misses"] for c in self.cache_totals.values())
        return h / (h + m) if (h + m) else None

    def snapshot(self) -> dict:
        return {
            "workers": self.workers,
            "executor": "pool" if self.workers else "inline",
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
