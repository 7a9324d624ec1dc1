"""Pluggable task executors: ``serial`` and a real multiprocessing ``pool``.

``serial``
    Runs every task inline in the driver process, in the deterministic
    order the scheduler dictates — bit-identical to the legacy eager
    driver (task internals are the same arithmetic, and only mutually
    independent tasks are ever reordered).

``pool``
    A persistent ``multiprocessing`` pool (fork start method) that runs
    *offloadable* tasks — those carrying a picklable ``payload`` and
    operating on SharedMemory-backed FABs — on separate cores, the
    on-node stand-in for MPI ranks.  Communication, boundary-condition
    and interpolation tasks still run inline in the driver, which is
    exactly the comm/compute overlap structure the paper exploits: the
    driver packs/unpacks halos while workers churn through box kernels.

Workers inherit the driver's kernel set and case via fork (set with
:func:`set_worker_context` just before the pool starts), so nothing
heavyweight is pickled per task: a task payload is a small dict of
shared-memory metadata plus the batch's stacked metrics.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import time
from collections import Counter
from typing import Callable, Dict, Optional, Tuple

from repro.kernels.batch import rhs_update
from repro.runtime.shm import attach_array

EXECUTORS = ("serial", "pool")

#: (kernels, case) globals inherited by forked workers
_WORKER_CTX: Optional[tuple] = None

#: the driver's pid (forked workers inherit it and compare unequal), so
#: an injected "kill" can never take down the driver process itself
_DRIVER_PID = os.getpid()


def set_worker_context(kernels, case) -> None:
    """Install the state forked pool workers will inherit."""
    global _WORKER_CTX
    _WORKER_CTX = (kernels, case)


def _run_payload(spec: dict) -> Tuple[int, float, Dict[str, float]]:
    """Execute one offloaded task spec; returns (pid, seconds, lifecycle
    times).

    Runs in a worker process (or inline in the driver as a fallback).
    Data arrays are attached from shared memory and mutated in place; the
    task's launches land in the launch tables of whichever process runs
    it — the driver's own devices inline, the forked copies in a worker
    (:func:`_run_payload_remote` sends those back).

    The lifecycle dict carries absolute ``perf_counter`` start/finish
    timestamps (workers are forked, so the monotonic clock is shared
    with the driver) and echoes the span id planted in the payload, so
    the driver-side perfscope can reconcile the span across the process
    boundary.
    """
    t0 = time.perf_counter()
    sid = spec.pop("_sid", None)
    fault = spec.get("_fault")
    if fault is not None:
        # planted by the fault-injection harness (repro.resilience.faults);
        # the supervisor strips the marker before any re-submission, so a
        # planned fault fires at most once per run — a transient failure
        if fault[0] == "kill":
            if os.getpid() != _DRIVER_PID:
                os._exit(3)
            # running inline in the driver (degraded mode): losing the
            # driver is not the modeled failure — degrade to a task error
            from repro.resilience.faults import InjectedTaskError

            raise InjectedTaskError(
                "injected worker kill while running inline in the driver")
        if fault[0] == "slow":
            # stall *before* touching data: if the supervisor times out and
            # respawns the pool, the terminated sleeper has written nothing
            time.sleep(float(fault[1]))
        if fault[0] == "error":
            from repro.resilience.faults import InjectedTaskError

            raise InjectedTaskError(
                f"injected task error in worker {os.getpid()}")
    op = spec["op"]
    if op == "rhs_update":
        _rhs_update(spec)
    elif op == "serve_run":
        # a whole simulation run dispatched by the serve layer's shared
        # fleet; the import is deferred so plain solver pools never load
        # the serving stack
        from repro.serve.worker import execute_serve_run

        execute_serve_run(spec)
    else:  # pragma: no cover - future ops
        raise ValueError(f"unknown payload op {op!r}")
    t1 = time.perf_counter()
    times: Dict[str, float] = {"t_started": t0, "t_finished": t1}
    if sid is not None:
        times["sid"] = sid
    return os.getpid(), t1 - t0, times


def _run_payload_remote(blob: bytes):
    """Worker-process entry: unpickle the task spec, run it, time both.

    The driver pickles the payload itself (metering bytes and seconds —
    the serialize bucket) and ships the blob, so ``multiprocessing``
    only copies bytes instead of re-pickling the dict; the worker-side
    unpickle is metered here as ``deserialize_s``.

    Also returns the launch tables this task filled on the worker's forked
    copies of the driver's devices, ``{device index: table}``, which the
    driver adds into the devices themselves.  Only this entry drains: a
    payload run inline in the driver counts straight into the real tables.
    """
    t_att = time.perf_counter()
    spec = pickle.loads(blob)
    des = time.perf_counter() - t_att
    backend = getattr(_WORKER_CTX[0], "exec_backend", None)
    devices = backend.devices if backend is not None else ()
    for dev in devices:
        # what the fork inherited, or the previous task already returned
        dev.reset()
    pid, dur, times = _run_payload(spec)
    tables = {i: dev.table for i, dev in enumerate(devices) if dev.table}
    # the worker's busy span starts at blob arrival, not after unpickle
    times["t_started"] = t_att
    times["deserialize_s"] = des
    return pid, (times["t_finished"] - t_att), tables, times


def _rhs_update(spec: dict) -> None:
    """One batch's RK stage on the fabs attached from shared memory; the
    launches are accounted on the owning ranks' devices."""
    if _WORKER_CTX is None:  # pragma: no cover - guarded by PoolExecutor
        raise RuntimeError("worker context not set (set_worker_context)")
    rhs_update(*_WORKER_CTX,
               *([attach_array(meta) for meta in spec[tag]]
                 for tag in ("state", "du", "coords")),
               spec["metrics"], spec["ranks"], spec["ng"], spec["time"],
               spec["dt"], spec["stage"])


class BaseExecutor:
    """Interface shared by all executors; usable as a context manager.

    ``with make_executor(...) as ex`` guarantees pool teardown even when
    the body raises mid-step — no leaked worker processes.
    """

    name = "base"
    nworkers = 1

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    def cancel_pending(self) -> None:
        """Abandon in-flight work (e.g. when a step is rolled back)."""

    def drain_worker_tables(self) -> Dict[int, Counter]:
        """Return-and-clear the launch tables returned by workers, by
        device index.

        Inline executors do no remote work, so there is nothing to merge:
        every launch already hit the driver's devices directly.
        """
        return {}

    def shutdown(self) -> None:
        pass


class SerialExecutor(BaseExecutor):
    """Deterministic inline execution (the default)."""

    name = "serial"
    nworkers = 1

    def can_offload(self, task) -> bool:
        return False

    def submit(self, task, on_done: Callable) -> None:  # pragma: no cover
        raise RuntimeError("serial executor cannot offload tasks")

    def in_flight(self) -> int:
        return 0

    def poll(self) -> bool:
        return False

    def wait_one(self, timeout: float = None):  # pragma: no cover
        raise RuntimeError("serial executor has no pending tasks")


class PoolExecutor(BaseExecutor):
    """Real multiprocessing over shared-memory FABs.

    The pool is created lazily on first offload so the fork snapshots a
    fully constructed driver (kernel set, case, devices).  Requires the
    ``fork`` start method (POSIX); elsewhere construction raises and the
    caller should fall back to ``serial``.
    """

    name = "pool"

    def __init__(self, nworkers: Optional[int] = None) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "the pool executor needs the 'fork' start method; "
                "use runtime.executor=serial on this platform"
            )
        self.nworkers = max(2, int(nworkers) if nworkers else
                            (os.cpu_count() or 2))
        self._pool = None
        self._done: "queue.Queue" = queue.Queue()
        self._pending = 0
        self._worker_ids = {}  # pid -> stable small index
        #: launch tables returned by completed worker tasks, by device
        #: index, awaiting a drain at end of step
        self._worker_tables: Dict[int, Counter] = {}
        #: driver-side lifecycle metering per in-flight task (tid ->
        #: serialize seconds/bytes + dispatch timestamp)
        self._lifecycle: Dict[int, dict] = {}

    def _ensure_pool(self):
        if self._pool is None:
            if _WORKER_CTX is None:
                raise RuntimeError(
                    "set_worker_context() must run before the pool starts"
                )
            ctx = multiprocessing.get_context("fork")
            self._pool = ctx.Pool(processes=self.nworkers)
        return self._pool

    def can_offload(self, task) -> bool:
        return task.payload is not None

    def submit(self, task, on_done: Callable) -> None:
        """Dispatch one offloadable task; ``on_done(task, worker, dur)``
        fires from the scheduler loop (not the callback thread).

        The payload is pickled here in the driver (metered: seconds and
        bytes feed the perfscope ``serialize`` bucket) and shipped as a
        blob so ``multiprocessing`` only copies bytes rather than
        re-pickling the dict.
        """
        pool = self._ensure_pool()
        self._pending += 1

        def _cb(result, _task=task, _done=on_done):
            self._done.put((_task, _done, result, None))

        def _err(exc, _task=task, _done=on_done):
            self._done.put((_task, _done, None, exc))

        t0 = time.perf_counter()
        blob = pickle.dumps(task.payload, protocol=pickle.HIGHEST_PROTOCOL)
        t1 = time.perf_counter()
        self._lifecycle[task.tid] = {
            "serialize_s": t1 - t0,
            "pickle_bytes": len(blob),
            "t_dispatched": t1,
        }
        pool.apply_async(_run_payload_remote, (blob,),
                         callback=_cb, error_callback=_err)

    def in_flight(self) -> int:
        return self._pending

    def poll(self) -> bool:
        """True if a completion is waiting to be collected."""
        return not self._done.empty()

    def wait_one(self, timeout: Optional[float] = None) -> None:
        """Block for one completion and run its continuation."""
        task, on_done, result, exc = self._done.get(timeout=timeout)
        self._pending -= 1
        lc = self._lifecycle.pop(task.tid, {})
        if exc is not None:
            raise RuntimeError(f"pool task {task.name!r} failed: {exc}") from exc
        pid, dur, tables, times = result
        self._keep_tables(tables)
        lc.update(times)
        worker = self._worker_ids.setdefault(pid, len(self._worker_ids) + 1)
        on_done(task, worker, dur, lifecycle=lc)

    def _keep_tables(self, tables: Dict[int, Counter]) -> None:
        for index, table in tables.items():
            self._worker_tables.setdefault(index, Counter()).update(table)

    def drain_worker_tables(self) -> Dict[int, Counter]:
        acc, self._worker_tables = self._worker_tables, {}
        return acc

    def cancel_pending(self) -> None:
        """Terminate workers and drop in-flight tasks and stale results.

        Killing the pool (instead of joining forever) guarantees no
        half-finished task can write to shared memory after the caller
        has decided to abandon the step; a fresh pool is forked lazily on
        the next submit.
        """
        self._terminate_pool()
        while not self._done.empty():
            try:
                self._done.get_nowait()
            except queue.Empty:  # pragma: no cover - racing consumers
                break
        self._pending = 0
        self._lifecycle.clear()

    def _terminate_pool(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def shutdown(self) -> None:
        self._terminate_pool()


def make_executor(name: str, workers: Optional[int] = None,
                  supervision: Optional[dict] = None):
    """Build an executor by config name (``runtime.executor``).

    ``supervision`` (a kwargs dict for
    :class:`~repro.resilience.supervisor.SupervisedPoolExecutor`) wraps
    the pool in dead-worker detection, task re-submission and graceful
    degradation; None builds the bare pool.
    """
    if name == "serial":
        return SerialExecutor()
    if name == "pool":
        if supervision is not None:
            from repro.resilience.supervisor import SupervisedPoolExecutor

            return SupervisedPoolExecutor(workers, **supervision)
        return PoolExecutor(workers)
    raise ValueError(f"unknown executor {name!r}; options {EXECUTORS}")
