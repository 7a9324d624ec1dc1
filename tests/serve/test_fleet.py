"""The shared worker fleet: scheduling, budgets, its pool, failure recovery.

Covers a worker dying mid-run with other runs queued (no cross-run state
bleed, registry stays consistent), a stuck worker, a run whose worker
raises (retried, then failed past its budget), a saturated fleet
draining its queue, degradation to inline execution when the pool is
beyond saving, and the pool's own lifecycle (lazy fork of exactly
``workers`` processes, every one torn down on stop).
"""

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.observability.report import main as report_main
from repro.serve.chaos import ServiceFaultInjector
from repro.serve.fleet import WorkerFleet
from repro.serve.registry import DECK_NAME, RESULT_NAME, RunRegistry

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fleet pool needs the fork start method",
)


def deck(steps=2, ncell=32):
    return (f"crocco.case = sod\namr.n_cell = {ncell}\n"
            f"run.steps = {steps}\n")


def wait_terminal(reg, run_ids, timeout=90.0):
    t_end = time.monotonic() + timeout
    while time.monotonic() < t_end:
        states = {rid: reg.get(rid).state for rid in run_ids}
        if all(s in ("done", "failed", "cancelled") for s in states.values()):
            return states
        time.sleep(0.05)
    raise AssertionError(f"runs never finished: {states}")


def scripted_deck(*actions):
    """A deck whose executions follow ``actions`` (:func:`scripted_run`)."""
    return f"# script: {' '.join(actions)}\n" + deck(steps=1)


def scripted_run(spec):
    """Stands in for ``execute_serve_run``: execution k of a run logs its
    pid, then performs the k-th action of its deck's ``# script:`` line
    (the last one repeats) — ``stall`` sleeps past any deadline (and
    marks a late write if it ever wakes), ``error`` raises, ``ok``
    publishes a done result."""
    run_dir = Path(spec["run_dir"])
    actions = (run_dir / DECK_NAME).read_text().splitlines()[0].split()[2:]
    log = run_dir / "executions.log"
    k = len(log.read_text().splitlines()) if log.exists() else 0
    with open(log, "a") as f:
        f.write(f"{os.getpid()}\n")
    action = actions[min(k, len(actions) - 1)]
    if action == "stall":
        time.sleep(60.0)
        (run_dir / "late_write").write_text("the stuck worker woke up")
    elif action == "error":
        raise RuntimeError(f"scripted failure {k + 1}")
    (run_dir / RESULT_NAME).write_text(json.dumps(
        {"run_id": spec["run_id"], "status": "done", "pid": os.getpid()}))


def executions(reg, rec):
    """The pids of every execution of a scripted run, in order."""
    return [int(line) for line in
            (reg.run_dir(rec.id) / "executions.log").read_text().split()]


def chk_levels(run_dir):
    return {p.name: p.read_bytes() for p in sorted((run_dir / "chk").iterdir())
            if p.name.startswith("Level_")}


@pytest.fixture
def scripted(monkeypatch):
    """Workers (and the inline path) run :func:`scripted_run`; the pool
    forks after the patch, so its workers inherit it."""
    monkeypatch.setattr("repro.serve.fleet.execute_serve_run", scripted_run)


@pytest.fixture
def svc(tmp_path):
    reg = RunRegistry(tmp_path / "svc")
    made = []

    def build(**kw):
        kw.setdefault("workers", 2)
        kw.setdefault("task_timeout", 120.0)
        fleet = WorkerFleet(reg, **kw).start()
        made.append(fleet)
        return reg, fleet

    yield build
    for fleet in made:
        fleet.stop()


def test_saturated_fleet_drains_queue_without_bleed(svc):
    reg, fleet = svc(workers=1)  # every run queues behind one lane
    recs = [reg.submit(deck(steps=s), label=f"s{s}") for s in (2, 3, 4)]
    states = wait_terminal(reg, [r.id for r in recs])
    assert set(states.values()) == {"done"}
    # no cross-run bleed: each run's result reflects its own deck
    for rec, steps in zip(recs, (2, 3, 4)):
        result = reg.get(rec.id).result
        assert result["steps"] == steps, f"{rec.id} ran the wrong deck"
        assert result["status"] == "done"
    assert fleet.snapshot()["completed_runs"] == 3


def test_saturated_queue_of_repeated_configs_runs_each_once(svc):
    """Every queued run of a queue of repeated configs is done, in
    exactly one dispatch."""
    reg, fleet = svc(workers=1)
    ncell = (16, 24)  # two configs (multiples of the blocking factor 8)
    recs = [reg.submit(f"crocco.case = sod\namr.n_cell = {ncell[i % 2]}\n"
                       "run.steps = 1\n") for i in range(12)]
    states = wait_terminal(reg, [r.id for r in recs])
    assert list(states.values()) == ["done"] * len(recs)
    assert [reg.get(r.id).attempts for r in recs] == [1] * len(recs)
    assert fleet.snapshot()["completed_runs"] == len(recs)


def test_priority_order_on_single_lane(svc):
    reg, fleet = svc(workers=1)
    # the first run occupies the lane; of the rest, highest priority wins
    first = reg.submit(deck(steps=2))
    low = reg.submit(deck(steps=2), priority=0)
    high = reg.submit(deck(steps=2), priority=7)
    wait_terminal(reg, [first.id, low.id, high.id])
    t_high = reg.get(high.id).started_at
    t_low = reg.get(low.id).started_at
    assert t_high <= t_low, "high-priority run started after low-priority"


def test_pool_is_lazy(svc):
    reg, fleet = svc(workers=2)
    assert fleet._pool is None and not fleet._procs  # nothing forked yet
    rec = reg.submit(deck(steps=1))
    assert wait_terminal(reg, [rec.id]) == {rec.id: "done"}
    assert fleet._pool is not None and fleet._procs  # the dispatch forked


def test_pool_forks_exactly_workers(svc):
    reg, fleet = svc(workers=3)
    rec = reg.submit(deck(steps=1))
    assert wait_terminal(reg, [rec.id]) == {rec.id: "done"}
    assert len(fleet._procs) == 3 and not fleet._worker_died()


def test_single_worker_fleet_forks_one_process(svc):
    reg, fleet = svc(workers=1)
    rec = reg.submit(deck(steps=1))
    assert wait_terminal(reg, [rec.id]) == {rec.id: "done"}
    # one lane, one process: no floor of two workers
    assert len(fleet._procs) == 1 and not fleet._worker_died()
    assert reg.get(rec.id).worker == 1


def test_stop_tears_down_every_worker(svc):
    reg, fleet = svc(workers=2)
    recs = [reg.submit(deck(steps=1)) for _ in range(2)]
    wait_terminal(reg, [r.id for r in recs])
    procs = list(fleet._procs)
    assert len(procs) == 2 and all(p.is_alive() for p in procs)
    fleet.stop()
    assert fleet._pool is None and not fleet._procs
    assert not any(p.is_alive() for p in procs)


def test_stop_is_idempotent(svc):
    reg, fleet = svc(workers=1)
    rec = reg.submit(deck(steps=1))
    assert wait_terminal(reg, [rec.id]) == {rec.id: "done"}
    fleet.stop()
    fleet.stop()
    assert fleet._pool is None and not fleet._procs
    rec = reg.submit(deck(steps=1))  # a stopped fleet dispatches nothing
    time.sleep(0.3)
    assert reg.get(rec.id).state == "queued"


def test_killed_worker_recovered_bit_exact(svc, tmp_path):
    """A worker killed at the step-2 boundary is noticed (the deadline is
    far away, so only the dead process gives it away), its run resumes
    with <= 1 replayed step and ends bitwise equal to an inline run."""
    ckdeck = deck(steps=4) + "run.checkpoint = chk\n"
    ref_reg = RunRegistry(tmp_path / "ref")
    ref_fleet = WorkerFleet(ref_reg, workers=0).start()
    try:
        ref = ref_reg.submit(ckdeck)
        assert wait_terminal(ref_reg, [ref.id]) == {ref.id: "done"}
    finally:
        ref_fleet.stop()
    reg, fleet = svc(workers=1, task_timeout=300.0,
                     chaos=ServiceFaultInjector.from_plan("kill_worker@1:2"))
    t0 = time.monotonic()
    rec = reg.submit(ckdeck)
    assert wait_terminal(reg, [rec.id]) == {rec.id: "done"}
    assert time.monotonic() - t0 < 60.0
    assert fleet.stats.counters.get("pool_restarts", 0) == 1
    assert fleet.stats.counters.get("task_resubmits", 0) == 1
    result = reg.get(rec.id).result
    assert result["steps"] == 4 and result["resumed"] is True
    assert result["replayed_steps"] <= 1
    levels = chk_levels(reg.run_dir(rec.id))
    assert levels and levels == chk_levels(ref_reg.run_dir(ref.id))


def test_stuck_worker_terminated_before_it_wrote(svc, scripted):
    reg, fleet = svc(workers=1, task_timeout=0.5)
    rec = reg.submit(scripted_deck("stall", "ok"))
    assert wait_terminal(reg, [rec.id]) == {rec.id: "done"}
    assert fleet.stats.counters.get("pool_restarts", 0) == 1
    stuck, rerun = executions(reg, rec)
    assert stuck != rerun
    with pytest.raises(ProcessLookupError):  # terminated and reaped
        os.kill(stuck, 0)
    assert not (reg.run_dir(rec.id) / "late_write").exists()
    assert reg.get(rec.id).attempts == 2


def test_erroring_run_retried_in_pool(svc, scripted):
    reg, fleet = svc(workers=2, task_retries=2)
    bad = reg.submit(scripted_deck("error", "ok"))
    good = reg.submit(scripted_deck("ok"))
    states = wait_terminal(reg, [bad.id, good.id])
    assert states == {bad.id: "done", good.id: "done"}
    assert fleet.stats.counters.get("task_retries", 0) == 1
    assert fleet.stats.counters.get("pool_restarts", 0) == 0  # an error is no lost worker
    assert len(executions(reg, bad)) == 2 and len(executions(reg, good)) == 1
    assert reg.get(bad.id).attempts == 2 and reg.get(good.id).attempts == 1


def test_run_erroring_past_its_retries_fails_and_queue_moves_on(svc, scripted):
    reg, fleet = svc(workers=1, task_retries=1)
    bad = reg.submit(scripted_deck("error"))
    behind = reg.submit(scripted_deck("ok"))
    states = wait_terminal(reg, [bad.id, behind.id])
    assert states == {bad.id: "failed", behind.id: "done"}
    back = reg.get(bad.id)
    assert "after 2 attempt(s)" in back.reason
    assert "scripted failure 2" in back.reason
    assert back.attempts == 2 and len(executions(reg, bad)) == 2
    assert fleet.stats.counters.get("task_retries", 0) == 1
    assert fleet.snapshot()["completed_runs"] == 1


def test_run_killed_before_first_checkpoint_counts_two_attempts(
        svc, capsys):
    """The re-dispatch of a run that never checkpointed (so it cannot
    say ``resumed``) is still counted, on the record and in the report."""
    reg, fleet = svc(workers=1,
                     chaos=ServiceFaultInjector.from_plan("kill_worker@1:0"))
    rec = reg.submit(deck(steps=2))
    assert wait_terminal(reg, [rec.id]) == {rec.id: "done"}
    back = reg.get(rec.id)
    assert back.attempts == 2 and "resumed" not in back.result
    assert fleet.stats.counters.get("pool_restarts", 0) == 1
    assert report_main([str(reg.run_dir(rec.id))]) == 0
    out = capsys.readouterr().out
    assert "-- service recovery --" in out
    assert "dispatch attempts = 2, requeues = 0" in out


def test_worker_death_midrun_with_queue(svc):
    """A killed worker's run is re-dispatched; queued runs still finish."""
    reg, fleet = svc(workers=1, task_timeout=4.0, task_retries=1,
                     chaos=ServiceFaultInjector.from_plan("kill_worker@1:0"))
    victim = reg.submit(deck(steps=2), label="victim")
    bystander = reg.submit(deck(steps=3), label="bystander")
    states = wait_terminal(reg, [victim.id, bystander.id], timeout=120.0)
    assert states == {victim.id: "done", bystander.id: "done"}
    # the victim really did take the recovery path
    assert fleet.stats.counters.get("pool_restarts", 0) >= 1
    assert reg.get(victim.id).result["steps"] == 2
    assert reg.get(bystander.id).result["steps"] == 3
    assert reg.counts()["running"] == 0  # registry fully reconciled


def test_degrades_to_inline_when_pool_unrecoverable(svc):
    """Past the restart budget the fleet runs inline instead of dropping."""
    reg, fleet = svc(workers=1, task_timeout=3.0, task_retries=0,
                     max_pool_restarts=0,
                     chaos=ServiceFaultInjector.from_plan("kill_worker@1:0"))
    first = reg.submit(deck(steps=2))
    later = reg.submit(deck(steps=2))
    states = wait_terminal(reg, [first.id, later.id], timeout=120.0)
    assert states[first.id] == "done"  # finished inline after the respawn
    assert states[later.id] == "done"
    assert fleet.degraded
    assert fleet.stats.counters.get("degraded_to_serial", 0) == 1


def test_sim_failure_is_a_result_not_a_retry(svc):
    reg, fleet = svc(workers=1)
    bad = reg.submit("crocco.case = nosuchcase\nrun.steps = 1\n")
    ok = reg.submit(deck(steps=2))
    states = wait_terminal(reg, [bad.id, ok.id])
    assert states[bad.id] == "failed"
    assert "nosuchcase" in reg.get(bad.id).reason
    assert states[ok.id] == "done"
    # a deck failure is a result, not a worker death: no pool restarts
    assert fleet.stats.counters.get("pool_restarts", 0) == 0


def test_step_budget_cancels_through_watchdog(svc):
    reg, fleet = svc(workers=1)
    rec = reg.submit(deck(steps=50), max_steps=3)
    states = wait_terminal(reg, [rec.id])
    assert states[rec.id] == "cancelled"
    back = reg.get(rec.id)
    assert "budget" in back.reason
    assert back.result["steps"] == 3  # stopped exactly at the budget


def test_cancel_flag_stops_running_run(svc):
    reg, fleet = svc(workers=1)
    rec = reg.submit(deck(steps=2000, ncell=64))
    t_end = time.monotonic() + 60
    while reg.get(rec.id).state != "running" and time.monotonic() < t_end:
        time.sleep(0.02)
    assert reg.get(rec.id).state == "running"
    time.sleep(0.3)  # let it take a few steps first
    reg.cancel(rec.id)
    states = wait_terminal(reg, [rec.id], timeout=60.0)
    assert states[rec.id] == "cancelled"
    assert reg.get(rec.id).reason == "cancelled by request"


def test_inline_fleet_executes_without_a_pool(svc):
    reg, fleet = svc(workers=0)  # a fleet that starts out degraded
    recs = [reg.submit(deck(steps=2)) for _ in range(2)]
    states = wait_terminal(reg, [r.id for r in recs])
    assert set(states.values()) == {"done"}
    assert fleet._pool is None and fleet.degraded
    snap = fleet.snapshot()
    assert snap["executor"] == "inline" and snap["workers"] == 0
    assert snap["resilience"] == {}  # starting inline is no recovery
    assert {reg.get(r.id).worker for r in recs} == {0}
    assert snap["completed_runs"] == len(recs)


def test_negative_workers_is_refused(tmp_path):
    with pytest.raises(ValueError, match=">= 0"):
        WorkerFleet(RunRegistry(tmp_path), workers=-1)
