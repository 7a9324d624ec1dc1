"""The shared worker fleet: scheduling, budgets, failure recovery.

Covers the resilience satellite: a worker dying mid-run with other runs
queued (no cross-run state bleed, registry stays consistent), a
saturated fleet draining its queue, and degradation to inline execution
when the pool is beyond saving.
"""

import multiprocessing
import time

import pytest

from repro.serve.fleet import WorkerFleet
from repro.serve.registry import RunRegistry

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


@pytest.fixture
def svc(tmp_path):
    reg = RunRegistry(tmp_path / "svc")
    made = []

    def build(**kw):
        kw.setdefault("workers", 2)
        kw.setdefault("task_timeout", 120.0)
        fleet = WorkerFleet(reg, tmp_path / "svc" / "cache", **kw).start()
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


def test_saturated_queue_of_repeated_configs_hits_the_cache(svc):
    """Every queued run is done exactly once, and each distinct config
    misses the cross-run cache only the first time it runs."""
    reg, fleet = svc(workers=1)
    ncell = (16, 24)  # two configs (multiples of the blocking factor 8)
    recs = [reg.submit(f"crocco.case = sod\namr.n_cell = {ncell[i % 2]}\n"
                       "run.steps = 1\n") for i in range(12)]
    states = wait_terminal(reg, [r.id for r in recs])
    assert list(states.values()) == ["done"] * len(recs)
    assert fleet.snapshot()["completed_runs"] == len(recs)
    assert fleet.cache_hit_rate() > 0.8


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


def test_worker_death_midrun_with_queue(svc):
    """A killed worker's run is re-dispatched; queued runs still finish."""
    reg, fleet = svc(workers=1, task_timeout=4.0, task_retries=1)
    fleet.fault_next = ("kill",)  # next dispatched run dies mid-flight
    victim = reg.submit(deck(steps=2), label="victim")
    bystander = reg.submit(deck(steps=3), label="bystander")
    states = wait_terminal(reg, [victim.id, bystander.id], timeout=120.0)
    assert states == {victim.id: "done", bystander.id: "done"}
    # the victim really did take the recovery path
    assert fleet.stats.get("pool_restarts") >= 1
    assert reg.get(victim.id).result["steps"] == 2
    assert reg.get(bystander.id).result["steps"] == 3
    assert reg.counts()["running"] == 0  # registry fully reconciled


def test_degrades_to_inline_when_pool_unrecoverable(svc):
    """Past the restart budget the fleet runs inline instead of dropping."""
    reg, fleet = svc(workers=1, task_timeout=3.0, task_retries=0,
                     max_pool_restarts=0)
    fleet.fault_next = ("kill",)
    first = reg.submit(deck(steps=2))
    later = reg.submit(deck(steps=2))
    states = wait_terminal(reg, [first.id, later.id], timeout=120.0)
    assert states[first.id] == "done"  # finished inline after the respawn
    assert states[later.id] == "done"
    assert fleet.degraded
    assert fleet.stats.get("degraded_to_serial") == 1


def test_sim_failure_is_a_result_not_a_retry(svc):
    reg, fleet = svc(workers=1)
    bad = reg.submit("crocco.case = nosuchcase\nrun.steps = 1\n")
    ok = reg.submit(deck(steps=2))
    states = wait_terminal(reg, [bad.id, ok.id])
    assert states[bad.id] == "failed"
    assert "nosuchcase" in reg.get(bad.id).reason
    assert states[ok.id] == "done"
    # a deck failure is a result, not a worker death: no pool restarts
    assert fleet.stats.get("pool_restarts") == 0


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


def test_inline_fleet_executes_without_a_pool(tmp_path):
    reg = RunRegistry(tmp_path / "svc")
    fleet = WorkerFleet(reg, tmp_path / "svc" / "cache",
                        executor="inline").start()
    try:
        recs = [reg.submit(deck(steps=2)) for _ in range(2)]
        states = wait_terminal(reg, [r.id for r in recs])
        assert set(states.values()) == {"done"}
        # the second run hit the cache the first one populated
        assert fleet.cache_hit_rate() is not None
        assert fleet.cache_hit_rate() > 0
    finally:
        fleet.stop()


def test_cross_run_cache_shared_across_worker_processes(svc):
    reg, fleet = svc(workers=1)
    a = reg.submit(deck(steps=2))
    b = reg.submit(deck(steps=2))
    wait_terminal(reg, [a.id, b.id])
    # second identical config must be served from the shared cache
    rb = reg.get(b.id).result
    assert rb["cache_hit_rate"] == 1.0
    assert fleet.cache_hit_rate() is not None and fleet.cache_hit_rate() >= 0.5
