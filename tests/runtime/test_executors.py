"""The fleet's process pool: construction and laziness (recovery of a
dead or stuck worker: ``tests/resilience/test_supervisor.py``)."""

import multiprocessing

import pytest

from repro.runtime.executors import PoolExecutor

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork start method")


class TestFactory:
    def test_pool_factory(self):
        with PoolExecutor(3) as ex:
            assert ex.nworkers == 3

    def test_pool_worker_floor(self):
        # the pool never runs with fewer than two workers
        with PoolExecutor(1) as ex:
            assert ex.nworkers == 2

    def test_unknown_name(self, tmp_path):
        # the only place an executor is still named is the fleet
        from repro.serve.fleet import WorkerFleet
        from repro.serve.registry import RunRegistry

        with pytest.raises(ValueError, match="'pool' or 'inline'"):
            WorkerFleet(RunRegistry(tmp_path), None, executor="threads")


class TestPool:
    def test_pool_is_lazy(self):
        with PoolExecutor(2) as ex:
            assert ex._pool is None  # nothing forked at construction
            assert not ex.worker_died()
            ex._ensure_pool()
            assert len(ex._workers) == 2 and not ex.worker_died()
        assert ex._pool is None and ex._workers == []
