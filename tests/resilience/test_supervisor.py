"""Supervised pool executor: worker death, retries, teardown guarantees."""

import multiprocessing

import numpy as np
import pytest

from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.resilience.supervisor import SupervisedPoolExecutor
from repro.runtime.executors import (PoolExecutor, SerialExecutor,
                                     make_executor)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")


def run_dmr(steps=3, **overrides):
    defaults = dict(version="2.0", nranks=6, ranks_per_node=6, max_level=1,
                    max_grid_size=32, blocking_factor=8, regrid_int=2)
    defaults.update(overrides)
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(**defaults))
    sim.initialize()
    sim.run(steps)
    state = {(lev, i): fab.whole().copy()
             for lev in range(sim.finest_level + 1)
             for i, fab in sim.state[lev]}
    stats = sim.resilience.as_dict()
    sim.close()
    return state, stats


def assert_states_match(a, b, tol=1e-12):
    assert set(a) == set(b)
    for k in a:
        err = float(np.abs(a[k] - b[k]).max())
        assert err < tol, f"level/box {k}: max abs err {err}"


class TestConstruction:
    def test_make_executor_supervised(self):
        if not HAS_FORK:
            pytest.skip("needs fork start method")
        ex = make_executor("pool", workers=3,
                           supervision={"task_retries": 5})
        assert isinstance(ex, SupervisedPoolExecutor)
        assert isinstance(ex, PoolExecutor)  # drop-in for the scheduler
        assert ex.task_retries == 5
        ex.shutdown()

    def test_make_executor_bare(self):
        if not HAS_FORK:
            pytest.skip("needs fork start method")
        ex = make_executor("pool", workers=2)
        assert type(ex) is PoolExecutor
        ex.shutdown()

    def test_context_manager_tears_down(self):
        with make_executor("serial") as ex:
            assert isinstance(ex, SerialExecutor)
        if HAS_FORK:
            with make_executor("pool", workers=2) as ex:
                pass
            assert ex._pool is None

    def test_shutdown_idempotent(self):
        if not HAS_FORK:
            pytest.skip("needs fork start method")
        ex = make_executor("pool", workers=2,
                           supervision={"task_timeout": 1.0})
        ex.shutdown()
        ex.shutdown()


@needs_fork
class TestWorkerDeath:
    def test_killed_worker_recovered_bit_exact(self):
        ref, _ = run_dmr(executor="serial")
        state, stats = run_dmr(
            executor="pool", workers=2, task_timeout=0.75,
            faults_plan="kill_worker@1.1 seed=7")
        assert stats["pool_restarts"] >= 1
        assert stats["task_resubmits"] >= 1
        # a respawn taints the step: the watchdog rolled it back whole
        assert stats["step_retries"] >= 1
        assert stats["recovered_steps"] >= 1
        assert_states_match(ref, state)

    def test_stuck_worker_recovered(self):
        ref, _ = run_dmr(executor="serial", steps=2)
        state, stats = run_dmr(
            steps=2, executor="pool", workers=2, task_timeout=0.5,
            faults_plan="slow@1.0:30 seed=2")
        assert stats["pool_restarts"] >= 1
        assert_states_match(ref, state)


@needs_fork
class TestTaskFailure:
    def test_failed_task_retried_in_pool(self):
        ref, _ = run_dmr(executor="serial", steps=2)
        state, stats = run_dmr(
            steps=2, executor="pool", workers=2,
            faults_plan="task_error@1.0 seed=4")
        assert stats["task_retries"] >= 1
        assert_states_match(ref, state)

    def test_unsupervised_pool_still_works(self):
        ref, _ = run_dmr(executor="serial", steps=2)
        state, stats = run_dmr(steps=2, executor="pool", workers=2,
                               supervise=False)
        assert stats["pool_restarts"] == 0
        assert_states_match(ref, state)


@needs_fork
def test_inline_fallback_counts_once_in_the_drivers_tables():
    """The supervisor's last-resort inline execution runs the payload in
    the driver process: its launches land in the real device tables, once,
    on the owning ranks — nothing is cleared, drained or merged again (only
    the worker entry point drains, and only forked copies)."""
    from collections import Counter

    from repro.resilience.supervisor import _InFlight
    from repro.runtime.rk3graph import build_stage_graph

    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(
        version="2.0", nranks=6, ranks_per_node=6, max_level=1,
        max_grid_size=32, blocking_factor=8, regrid_int=2,
        backend_target="device", executor="pool", workers=2))
    try:
        sim.initialize()
        executor = sim.engine.executor
        graph = build_stage_graph(sim, 1e-5, 0, arena=sim.engine.arena)
        # a batch whose members sit on several ranks, none of them rank 0
        task = next(t for t in graph.tasks if t.payload is not None
                    and len(set(t.payload["ranks"])) > 1
                    and 0 not in t.payload["ranks"])
        before = [Counter(d.table) for d in sim.devices]
        assert all(before)
        done = []
        # no FillPatch has run: the fine members' ghost cells are still 0
        with np.errstate(invalid="ignore"):
            executor._run_inline(_InFlight(
                task, lambda *args, **kw: done.append(args), attempt=1,
                deadline=0.0))
        assert len(done) == 1
        new = [Counter(d.table) - was for d, was in zip(sim.devices, before)]
        ranks = set(task.payload["ranks"])
        for rank in ranks:   # one launch per kernel on every owning rank
            assert sorted(r.name for r in new[rank].elements()) == [
                "Update", "WENOx", "WENOy"]
        assert not any(t for r, t in enumerate(new) if r not in ranks)
        assert executor.drain_worker_tables() == {}
        assert sim.exec_backend.worker_launches == 0
    finally:
        sim.close()
