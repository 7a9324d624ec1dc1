"""Step watchdog: validation, rollback/retry, dt-halving, restore."""

import numpy as np
import pytest

from repro.cases.shocktube import SodShockTube
from repro.core.crocco import Crocco, CroccoConfig
from repro.resilience.watchdog import UnrecoverableStepError


def make_sim(**overrides):
    defaults = dict(version="1.1", max_grid_size=16, blocking_factor=8)
    defaults.update(overrides)
    sim = Crocco(SodShockTube(32), CroccoConfig(**defaults))
    sim.initialize()
    return sim


def final_state(sim):
    return {i: fab.whole().copy() for i, fab in sim.state[0]}


class TestNanRecovery:
    def test_recovers_and_matches_fault_free(self):
        clean = make_sim(watchdog=False)
        clean.run(4)
        ref = final_state(clean)
        clean.close()

        sim = make_sim(faults_plan="nan@2 seed=3")
        sim.run(4)
        assert sim.resilience.counters.get("nan_detections", 0) == 1
        assert sim.resilience.counters.get("rollbacks", 0) == 1
        assert sim.resilience.counters.get("recovered_steps", 0) == 1
        assert sim.resilience.counters.get("dt_halvings", 0) == 0  # first retry same dt
        for i, arr in ref.items():
            np.testing.assert_array_equal(arr, sim.state[0].fab(i).whole())
        sim.close()

    def test_watchdog_off_lets_nan_through(self):
        sim = make_sim(watchdog=False, faults_plan="nan@1 seed=3")
        sim.run(2)
        assert any(np.isnan(fab.whole()).any() for _i, fab in sim.state[0])
        sim.close()


class TestInlineFaultRetry:
    def test_comm_drop_rolled_back(self):
        clean = make_sim(watchdog=False)
        clean.run(3)
        ref = final_state(clean)
        clean.close()

        sim = make_sim(faults_plan="drop_comm@1.1:fb seed=2")
        sim.run(3)
        assert sim.resilience.counters.get("step_retries", 0) == 1
        assert sim.resilience.counters.get("recovered_steps", 0) == 1
        for i, arr in ref.items():
            np.testing.assert_array_equal(arr, sim.state[0].fab(i).whole())
        sim.close()

    def test_inline_task_error_rolled_back(self):
        sim = make_sim(faults_plan="task_error@0:FB_finish seed=4")
        sim.run(2)
        assert sim.faults.fired_by_kind() == {"task_error": 1}
        assert sim.resilience.counters.get("recovered_steps", 0) == 1
        sim.close()


class TestEscalation:
    def test_persistent_failure_halves_dt_then_raises(self):
        # an impossible CFL margin makes every validation fail: the
        # watchdog retries same-dt once, then halves dt, then gives up
        sim = make_sim(cfl_margin=1e-12, max_step_retries=2)
        with pytest.raises(UnrecoverableStepError):
            sim.run(1)
        assert sim.resilience.counters.get("rollbacks", 0) == 3  # retries + final
        assert sim.resilience.counters.get("dt_halvings", 0) == 1
        assert sim.step_count == 0  # rolled back, never advanced
        sim.close()

    def test_non_retryable_errors_propagate(self):
        sim = make_sim()
        orig = sim._advance

        def boom(dt):
            raise ZeroDivisionError("a real bug")

        sim._advance = boom
        with pytest.raises(ZeroDivisionError):
            sim.step()
        sim._advance = orig
        assert sim.resilience.counters.get("rollbacks", 0) == 0
        sim.close()


class TestAutocheckpoint:
    def test_periodic_saves_and_pruning(self, tmp_path):
        sim = make_sim(autocheckpoint_every=1, autocheckpoint_keep=2,
                       autocheckpoint_dir=str(tmp_path / "auto"))
        sim.run(4)
        kept = sorted(p.name for p in (tmp_path / "auto").iterdir())
        assert kept == ["chk_step000003", "chk_step000004"]
        assert sim.resilience.counters.get("autocheckpoints", 0) == 4
        assert sim.watchdog.last_good.name == "chk_step000004"
        sim.close()

    def test_restore_from_last_good(self, tmp_path):
        # no step retries allowed: the injected NaN forces an immediate
        # restore from the last good autocheckpoint
        sim = make_sim(autocheckpoint_every=1, max_step_retries=0,
                       autocheckpoint_dir=str(tmp_path / "auto"),
                       faults_plan="nan@2 seed=5")
        sim.run(4)
        assert sim.resilience.counters.get("restores", 0) == 1
        assert sim.step_count >= 2  # resumed from step 2's checkpoint
        assert all(np.isfinite(fab.whole()).all()
                   for _i, fab in sim.state[0])
        sim.close()

    def test_exhausted_restores_raise(self):
        sim = make_sim(cfl_margin=1e-12, max_step_retries=0)
        with pytest.raises(UnrecoverableStepError):
            sim.run(1)
        sim.close()


class TestNoFaultOverheadPath:
    def test_watchdog_is_bitwise_transparent(self):
        guarded = make_sim()
        guarded.run(3)
        ref = final_state(guarded)
        t_g, n_g = guarded.time, guarded.step_count
        guarded.close()

        bare = make_sim(watchdog=False)
        bare.run(3)
        assert bare.time == t_g and bare.step_count == n_g
        for i, arr in ref.items():
            np.testing.assert_array_equal(arr, bare.state[0].fab(i).whole())
        assert guarded.resilience.as_dict()["rollbacks"] == 0
        bare.close()
