"""Supervised pool: worker death, stalls, retries, teardown guarantees —
on the payload shape the service fleet dispatches (``serve_run``).
Degradation to inline execution: ``tests/serve/test_fleet.py``."""

import json
import multiprocessing
import time

import pytest

from repro.resilience.supervisor import SupervisedPoolExecutor
from repro.runtime.executors import PoolExecutor, _run_payload
from repro.serve.fleet import _RunTask
from repro.serve.registry import DECK_NAME, RESULT_NAME

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork start method")

DECK = ("crocco.case = sod\namr.n_cell = 32\nrun.steps = 4\n"
        "run.checkpoint = chk\n")


def run_task(tmp_path, tid, fault=None):
    """A ``serve_run`` task over a fresh run directory, as the fleet
    builds it."""
    run_dir = tmp_path / f"run{tid}"
    run_dir.mkdir()
    (run_dir / DECK_NAME).write_text(DECK)
    payload = {"op": "serve_run", "run_id": run_dir.name,
               "run_dir": str(run_dir), "cache_dir": None}
    if fault is not None:
        payload["_fault"] = fault
    return _RunTask(tid, f"run:{run_dir.name}", payload), run_dir


def drive(ex, *tasks):
    """Submit ``tasks``, wait for all of them; the completions."""
    done = []
    for task in tasks:
        ex.submit(task, lambda task, worker, dur: done.append(task.tid))
    while ex.in_flight():
        ex.wait_one()
    return done


def artifacts(run_dir):
    result = json.loads((run_dir / RESULT_NAME).read_text())
    chk = {p.name: p.read_bytes() for p in sorted((run_dir / "chk").iterdir())
           if p.name.startswith("Level_")}
    return result, chk


def stub_run(monkeypatch, tmp_path, first_attempt):
    """Stand in for the run itself: ``first_attempt()`` while the payload
    still carries its fault marker (the supervisor strips it before a
    retry), then one line in a log per execution."""
    log = tmp_path / "executions.log"

    def execute_serve_run(spec):
        if "_fault" in spec:
            first_attempt()
        with open(log, "a") as f:
            f.write(spec["run_id"] + "\n")

    monkeypatch.setattr("repro.serve.worker.execute_serve_run",
                        execute_serve_run)
    return log


class TestConstruction:
    def test_make_executor_supervised(self):
        with SupervisedPoolExecutor(3, task_retries=5) as ex:
            assert isinstance(ex, PoolExecutor)  # same dispatch interface
            assert ex.nworkers == 3 and ex.task_retries == 5

    def test_make_executor_bare(self):
        with PoolExecutor(2) as ex:
            assert type(ex) is PoolExecutor and not hasattr(ex, "stats")

    def test_context_manager_tears_down(self):
        for cls in (PoolExecutor, SupervisedPoolExecutor):
            with cls(2) as ex:
                ex._ensure_pool()
                assert len(ex._workers) == 2
            assert ex._pool is None and not ex._workers

    def test_shutdown_idempotent(self):
        ex = SupervisedPoolExecutor(2, task_timeout=1.0)
        ex._ensure_pool()
        ex.shutdown()
        ex.shutdown()


class TestWorkerDeath:
    def test_killed_worker_recovered_bit_exact(self, tmp_path):
        reference, ref_dir = run_task(tmp_path, 0)
        _run_payload(reference.payload)
        # the worker hard-exits at the step-2 boundary; the deadline is
        # far away, so only noticing the dead process recovers in time
        victim, run_dir = run_task(tmp_path, 1, fault=("kill_step", 2))
        t0 = time.monotonic()
        with SupervisedPoolExecutor(2, task_timeout=300.0) as ex:
            assert drive(ex, victim) == [1]
            assert ex.stats.get("pool_restarts") >= 1
            assert ex.stats.get("task_resubmits") >= 1
        assert time.monotonic() - t0 < 60.0
        result, chk = artifacts(run_dir)
        assert result["status"] == "done" and result["steps"] == 4
        assert result["resumed"] is True and result["replayed_steps"] <= 1
        assert chk and chk == artifacts(ref_dir)[1]

    def test_stuck_worker_recovered(self, tmp_path, monkeypatch):
        log = stub_run(monkeypatch, tmp_path, lambda: time.sleep(60.0))
        task, _ = run_task(tmp_path, 1, fault=("stall",))
        with SupervisedPoolExecutor(2, task_timeout=0.5) as ex:
            assert drive(ex, task) == [1]
            assert ex.stats.get("pool_restarts") >= 1
        # the sleeper was terminated before it wrote anything
        assert log.read_text().splitlines() == ["run1"]


class TestTaskFailure:
    def test_failed_task_retried_in_pool(self, tmp_path, monkeypatch):
        def fail():
            raise RuntimeError("transient")

        log = stub_run(monkeypatch, tmp_path, fail)
        bad, _ = run_task(tmp_path, 1, fault=("error",))
        good, _ = run_task(tmp_path, 2)
        with SupervisedPoolExecutor(2, task_retries=2) as ex:
            assert sorted(drive(ex, bad, good)) == [1, 2]
            assert ex.stats.get("task_retries") == 1
            assert ex.stats.get("pool_restarts") == 0
        assert sorted(log.read_text().splitlines()) == ["run1", "run2"]

    def test_unsupervised_pool_still_works(self, tmp_path):
        task, run_dir = run_task(tmp_path, 1)
        with PoolExecutor(2) as ex:
            assert drive(ex, task) == [1]
        assert artifacts(run_dir)[0]["status"] == "done"
