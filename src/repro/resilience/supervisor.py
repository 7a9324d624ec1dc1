"""Supervised pool executor: dead-worker detection, re-submission, fallback.

A bare :class:`~repro.runtime.executors.PoolExecutor` hangs in
``wait_one`` if a worker process dies mid-task — ``multiprocessing.Pool``
replenishes the worker but the in-flight task's completion never
arrives.  The supervisor makes the pool — the service fleet's, which
dispatches whole runs (:mod:`repro.serve.fleet`) — survivable:

- a **dead worker is noticed**, not inferred: every wait slice checks the
  exit status of the processes the pool forked, so a killed worker costs
  one slice (<= 0.25 s), not a deadline;
- every submission also carries a **deadline** (``task_timeout``); a task
  that misses it is presumed lost to a stuck worker;
- on a lost task the whole pool is **terminated and respawned** (never
  joined forever).  Termination is what makes re-submission safe: the old
  workers are dead, so a merely-slow task can never complete *after* its
  replacement ran and write its artifacts a second time;
- completions that did land before the respawn are drained and delivered
  first, so finished work is never re-run;
- lost and failed tasks are **re-submitted with capped exponential
  backoff** (``task_retries`` times, :data:`RETRY_BACKOFF`), with the fault
  injector's one-shot markers stripped — a transient fault retried clean;
- after ``max_pool_restarts`` respawns the executor **degrades to inline
  execution** in the driver process so the work finishes slower instead
  of not at all.

Every recovery action is counted in the shared
:class:`~repro.resilience.stats.ResilienceStats`.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.resilience.stats import ResilienceStats
from repro.runtime.executors import PoolExecutor, _run_payload


class TaskFailedError(RuntimeError):
    """A task failed (or was lost) beyond the supervisor's retry budget."""


@dataclass
class _InFlight:
    task: object
    on_done: Callable
    attempt: int
    deadline: float


#: base and cap (seconds) of the task-retry backoff
RETRY_BACKOFF = (0.05, 1.0)


def capped_backoff(base: float, cap: float, attempt: int) -> float:
    """Delay before retry number ``attempt`` (0-based): ``base`` doubling
    per attempt up to ``cap``.  Callers that want jitter apply it."""
    return min(cap, base * 2 ** attempt)


class SupervisedPoolExecutor(PoolExecutor):
    """A :class:`PoolExecutor` that survives worker death and stalls."""

    def __init__(self, nworkers: Optional[int] = None,
                 task_retries: int = 2, task_timeout: float = 30.0,
                 max_pool_restarts: int = 3,
                 stats: Optional[ResilienceStats] = None) -> None:
        super().__init__(nworkers)
        self.task_retries = int(task_retries)
        self.task_timeout = float(task_timeout)
        self.max_pool_restarts = int(max_pool_restarts)
        self.stats = stats if stats is not None else ResilienceStats()
        self.pool_restarts = 0
        self._inflight: Dict[int, _InFlight] = {}
        self._degraded = False

    # -- executor interface ------------------------------------------------
    @property
    def degraded(self) -> bool:
        return self._degraded

    def in_flight(self) -> int:
        return len(self._inflight)

    def submit(self, task, on_done: Callable) -> None:
        entry = _InFlight(task, on_done, attempt=1, deadline=0.0)
        self._inflight[task.tid] = entry
        self._dispatch(entry)

    def wait_one(self, timeout: Optional[float] = None) -> None:
        """Deliver at least one completion, recovering lost tasks.

        Unlike the bare pool this can never hang: waits are sliced
        against the earliest in-flight deadline, and a dead worker or an
        expired deadline triggers pool respawn + re-submission (or
        inline execution).
        """
        if not self._inflight:
            raise RuntimeError("supervised pool has no pending tasks")
        t_end = None if timeout is None else time.monotonic() + timeout
        while self._inflight:
            now = time.monotonic()
            deadline = min(e.deadline for e in self._inflight.values())
            wait_s = max(0.005, min(deadline - now, 0.25))
            if t_end is not None:
                wait_s = min(wait_s, max(0.0, t_end - now))
            try:
                item = self._done.get(timeout=wait_s)
            except queue.Empty:
                if self.worker_died() or time.monotonic() >= deadline:
                    if self._recover_lost():
                        return
                elif t_end is not None and time.monotonic() >= t_end:
                    raise
                continue
            if self._handle(*item):
                return

    def shutdown(self) -> None:
        self._inflight.clear()
        self.cancel_pending()

    def cancel_pending(self) -> None:
        self._inflight.clear()
        super().cancel_pending()

    # -- internals ---------------------------------------------------------
    def _dispatch(self, entry: _InFlight) -> None:
        """(Re-)submit one in-flight entry to the pool, or run it inline."""
        if entry.attempt > 1:
            # one-shot injected faults don't survive a retry: the fault
            # modelled a transient failure of the *first* execution
            entry.task.payload.pop("_fault", None)
        if self._degraded:
            self._run_inline(entry)
            return
        pool = self._ensure_pool()
        entry.deadline = time.monotonic() + self.task_timeout
        tid, att = entry.task.tid, entry.attempt

        def _cb(result, tid=tid, att=att):
            self._done.put((tid, att, result, None))

        def _err(exc, tid=tid, att=att):
            self._done.put((tid, att, None, exc))

        pool.apply_async(_run_payload, (entry.task.payload,),
                         callback=_cb, error_callback=_err)

    def _run_inline(self, entry: _InFlight) -> None:
        """Last-resort execution in the driver process (always completes
        or raises — never hangs)."""
        t0 = time.perf_counter()
        try:
            _run_payload(entry.task.payload)
        except Exception as exc:
            self._inflight.pop(entry.task.tid, None)
            raise TaskFailedError(
                f"task {entry.task.name!r} failed inline after "
                f"{entry.attempt - 1} pool attempt(s): {exc}") from exc
        self._inflight.pop(entry.task.tid, None)
        entry.on_done(entry.task, 0, time.perf_counter() - t0)

    def _handle(self, tid: int, att: int, result, exc) -> bool:
        """Process one completion record; True if a task finished."""
        entry = self._inflight.get(tid)
        if entry is None or entry.attempt != att:
            return False  # stale: an earlier attempt already superseded
        if exc is not None:
            if entry.attempt <= self.task_retries:
                self.stats.inc("task_retries")
                entry.attempt += 1
                time.sleep(self._backoff_delay(entry.attempt))
                self._dispatch(entry)
                return entry.task.tid not in self._inflight  # inline path
            del self._inflight[tid]
            raise TaskFailedError(
                f"task {entry.task.name!r} failed after {entry.attempt} "
                f"attempt(s): {exc}") from exc
        del self._inflight[tid]
        pid, dur = result
        entry.on_done(entry.task, self._worker_index(pid), dur)
        return True

    def _backoff_delay(self, attempt: int) -> float:
        return capped_backoff(*RETRY_BACKOFF, max(0, attempt - 2))

    def _recover_lost(self) -> int:
        """A worker died or a deadline expired: respawn the pool,
        re-submit survivors.

        Returns the number of completions delivered while recovering
        (drained pre-respawn results plus inline last-resort runs).
        """
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
        self.pool_restarts += 1
        self.stats.inc("pool_restarts")
        if not self._degraded and self.pool_restarts > self.max_pool_restarts:
            self._degraded = True
            self.stats.inc("degraded_to_serial")
        delivered = 0
        for item in drained:
            if self._handle(*item):
                delivered += 1
        lost = list(self._inflight.values())
        for entry in lost:
            entry.attempt += 1
            self.stats.inc("task_resubmits")
            if entry.attempt > self.task_retries + 1 and not self._degraded:
                # out of pool retries: finish it inline rather than loop
                self._run_inline(entry)
                delivered += 1
                continue
            time.sleep(self._backoff_delay(entry.attempt))
            before = len(self._inflight)
            self._dispatch(entry)
            if len(self._inflight) < before:  # degraded inline completion
                delivered += 1
        return delivered
