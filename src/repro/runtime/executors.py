"""The service fleet's process pool: whole-run payloads on forked workers.

A simulation step has one execution path — the stage graph run in the
driver by :mod:`repro.runtime.scheduler` (DESIGN.md, "One way to run a
step").  Process parallelism lives one level up, where it wins: the
serve layer's :class:`~repro.serve.fleet.WorkerFleet` dispatches *whole
runs* (``serve_run`` payloads, see :mod:`repro.serve.worker`) onto the
persistent ``multiprocessing`` pool (fork start method) defined here,
wrapped by :class:`~repro.resilience.supervisor.SupervisedPoolExecutor`
for dead-worker recovery.

A task is anything with ``tid``, ``name`` and a picklable ``payload``
dict; its completion is delivered as ``on_done(task, worker, seconds)``
from the caller's own thread (:meth:`PoolExecutor.wait_one`), never from
the pool's callback thread.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
from typing import Callable, Optional, Tuple

#: the driver's pid (forked workers inherit it and compare unequal), so
#: an injected "kill" can never take down the driver process itself
_DRIVER_PID = os.getpid()


def _run_payload(spec: dict) -> Tuple[int, float]:
    """Execute one task payload; returns ``(pid, seconds)``.

    Runs in a worker process, or inline in the driver as the supervisor's
    last resort and in the fleet's ``inline`` mode.
    """
    t0 = time.perf_counter()
    fault = spec.get("_fault")
    if fault is not None and fault[0] == "kill":
        # planted by the fleet's chaos hooks; the supervisor strips the
        # marker before any re-submission, so it fires at most once
        if os.getpid() != _DRIVER_PID:
            os._exit(3)
        # running inline in the driver (degraded mode): losing the driver
        # is not the modeled failure — degrade to a task error
        from repro.resilience.faults import InjectedTaskError

        raise InjectedTaskError(
            "injected worker kill while running inline in the driver")
    op = spec["op"]
    if op == "serve_run":
        # the import is deferred: the serving stack loads in the process
        # that runs a payload, not in every importer of the pool
        from repro.serve.worker import execute_serve_run

        execute_serve_run(spec)
    else:
        raise ValueError(f"unknown payload op {op!r}")
    return os.getpid(), time.perf_counter() - t0


class PoolExecutor:
    """A persistent fork pool; usable as a context manager.

    The pool is created lazily on first submit, so the fork snapshots a
    fully constructed parent.  Requires the ``fork`` start method
    (POSIX); elsewhere construction raises.
    """

    def __init__(self, nworkers: Optional[int] = None) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "the process pool needs the 'fork' start method")
        self.nworkers = max(2, int(nworkers) if nworkers else
                            (os.cpu_count() or 2))
        self._pool = None
        #: the pool's worker processes as forked (a replacement the pool
        #: spawns for a dead one is not tracked: any death respawns all)
        self._workers: list = []
        self._done: "queue.Queue" = queue.Queue()
        self._pending = 0
        self._worker_ids = {}  # pid -> stable small index

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def _ensure_pool(self):
        if self._pool is None:
            before = set(multiprocessing.active_children())
            ctx = multiprocessing.get_context("fork")
            self._pool = ctx.Pool(processes=self.nworkers)
            self._workers = [p for p in multiprocessing.active_children()
                             if p not in before]
        return self._pool

    def worker_died(self) -> bool:
        """True once any worker this pool forked has exited: whatever it
        was running will never complete."""
        return any(p.exitcode is not None for p in self._workers)

    def submit(self, task, on_done: Callable) -> None:
        """Dispatch one task; ``on_done(task, worker, seconds)`` fires
        from :meth:`wait_one` (not the callback thread)."""
        pool = self._ensure_pool()
        self._pending += 1

        def _cb(result, _task=task, _done=on_done):
            self._done.put((_task, _done, result, None))

        def _err(exc, _task=task, _done=on_done):
            self._done.put((_task, _done, None, exc))

        pool.apply_async(_run_payload, (task.payload,),
                         callback=_cb, error_callback=_err)

    def in_flight(self) -> int:
        return self._pending

    def wait_one(self, timeout: Optional[float] = None) -> None:
        """Block for one completion and run its continuation."""
        task, on_done, result, exc = self._done.get(timeout=timeout)
        self._pending -= 1
        if exc is not None:
            raise RuntimeError(f"pool task {task.name!r} failed: {exc}") from exc
        pid, dur = result
        on_done(task, self._worker_index(pid), dur)

    def _worker_index(self, pid: int) -> int:
        return self._worker_ids.setdefault(pid, len(self._worker_ids) + 1)

    def cancel_pending(self) -> None:
        """Terminate workers and drop in-flight tasks and stale results.

        Killing the pool (instead of joining forever) guarantees no
        half-finished task can write anything after the caller has
        decided to abandon it; a fresh pool is forked lazily on the next
        submit.
        """
        self._terminate_pool()
        while not self._done.empty():
            try:
                self._done.get_nowait()
            except queue.Empty:  # pragma: no cover - racing consumers
                break
        self._pending = 0

    def _terminate_pool(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._workers = []

    def shutdown(self) -> None:
        self._terminate_pool()
