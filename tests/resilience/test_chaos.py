"""Chaos acceptance: task error + NaN + comm drop + kill-mid-checkpoint
in one DMR run, which must complete, match the fault-free run bit for
bit, and account for every injected fault in the run report.  (Worker
death is a service-level fault: ``tests/serve/test_chaos.py``.)"""

import numpy as np
import pytest

from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.observability.metrics import MetricsRegistry
from repro.observability.report import final_totals, format_report

#: one of each fault kind, all mid-run
CHAOS_PLAN = "task_error@1.1;nan@2;drop_comm@3.0:fb;kill_save@1;seed=7"


def run_dmr(steps=5, **overrides):
    defaults = dict(version="2.0", nranks=6, ranks_per_node=6, max_level=1,
                    max_grid_size=32, blocking_factor=8, regrid_int=2)
    defaults.update(overrides)
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(**defaults))
    sim.initialize()
    sim.run(steps)
    return sim


def grab_state(sim):
    return {(lev, i): fab.whole().copy()
            for lev in range(sim.finest_level + 1)
            for i, fab in sim.state[lev]}


class TestChaosRun:
    @pytest.fixture(scope="class")
    def chaos(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("chaos")
        clean = run_dmr()
        ref = grab_state(clean)
        clean.close()

        sim = run_dmr(
            faults_plan=CHAOS_PLAN,
            autocheckpoint_every=2,
            autocheckpoint_dir=str(tmp / "auto"),
            metrics_out=str(tmp / "metrics.jsonl"),
        )
        state = grab_state(sim)
        fired = sim.faults.fired_by_kind()
        stats = sim.resilience.as_dict()
        last_good = sim.watchdog.last_good
        sim.close()
        records = MetricsRegistry.read_jsonl(tmp / "metrics.jsonl")
        return dict(ref=ref, state=state, fired=fired, stats=stats,
                    last_good=last_good, records=records, tmp=tmp)

    def test_every_fault_fired(self, chaos):
        assert chaos["fired"] == {"task_error": 1, "nan": 1,
                                  "drop_comm": 1, "kill_save": 1}

    def test_matches_fault_free(self, chaos):
        assert set(chaos["ref"]) == set(chaos["state"])
        for k in chaos["ref"]:
            np.testing.assert_array_equal(chaos["ref"][k], chaos["state"][k])

    def test_recovery_actions_counted(self, chaos):
        s = chaos["stats"]
        assert s["nan_detections"] == 1      # nan
        assert s["checkpoint_failures"] == 1  # kill_save hit autocheckpoint
        assert s["recovered_steps"] == 3     # error + nan + drop all retried
        assert s["rollbacks"] == s["step_retries"] == 3
        assert s["dt_halvings"] == 0         # retries kept the original dt

    def test_survived_kill_mid_save(self, chaos):
        # the first autocheckpoint (step 2) was killed; the second (step 4)
        # must have published and be loadable
        assert chaos["last_good"] is not None
        assert chaos["last_good"].name == "chk_step000004"
        from repro.io.checkpoint import load_checkpoint

        case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
        target = Crocco(case, CroccoConfig(
            version="2.0", nranks=6, ranks_per_node=6, max_level=1,
            max_grid_size=32, blocking_factor=8, regrid_int=2))
        load_checkpoint(chaos["last_good"], target)
        assert target.step_count == 4
        target.close()

    def test_report_accounts_for_faults(self, chaos):
        totals = final_totals(chaos["records"], "resilience")
        assert totals["faults_injected"] == 4
        assert totals["injected.task_error"] == 1
        assert totals["injected.nan"] == 1
        assert totals["injected.drop_comm"] == 1
        assert totals["injected.kill_save"] == 1
        assert totals["recovered_steps"] == chaos["stats"]["recovered_steps"]
        text = format_report([], {}, chaos["records"])
        assert "-- resilience --" in text
        assert "faults injected      4" in text
        assert "run completed" in text
