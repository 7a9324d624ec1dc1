"""Fault-plan grammar, deterministic targeting, one-shot firing."""

import numpy as np
import pytest

from repro.cases.shocktube import SodShockTube
from repro.core.crocco import Crocco, CroccoConfig
from repro.resilience.faults import (FaultInjector, InjectedCommDrop,
                                     InjectedTaskError, parse_plan)
from repro.runtime.scheduler import Scheduler, Task


class TestPlanGrammar:
    def test_tokens(self):
        specs, seed = parse_plan(
            "seed=42 task_error@2.1 nan@3 kill_save@1 drop_comm@0:fb")
        assert seed == 42
        assert [(s.kind, s.step, s.stage, s.arg) for s in specs] == [
            ("task_error", 2, 1, None),
            ("nan", 3, 0, None),
            ("kill_save", 1, 0, None),
            ("drop_comm", 0, 0, "fb"),
        ]

    def test_semicolon_separated(self):
        specs, seed = parse_plan("task_error@1;nan@2;seed=9")
        assert len(specs) == 2
        assert seed == 9

    def test_bad_token(self):
        with pytest.raises(ValueError, match="bad fault token"):
            parse_plan("task_error@")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_plan("meteor_strike@3")

    def test_worker_kinds_point_at_the_service(self):
        """A step runs in one process: there is no worker to kill or
        stall, and the error says where worker death is injected."""
        from repro.serve.chaos import SERVICE_KINDS

        for token in ("kill_worker@1.1", "slow@2:1.5"):
            with pytest.raises(ValueError, match="unknown fault kind.*"
                               r"kill_worker@N\[:S\].*repro.serve.chaos"):
                parse_plan(token)
        assert "kill_worker" in SERVICE_KINDS
        assert parse_plan("kill_worker@1:2", kinds=SERVICE_KINDS)[0]

    def test_empty_plan_is_none(self):
        assert FaultInjector.from_config("") is None
        assert FaultInjector.from_config(None) is None
        assert FaultInjector.from_config("  ;  ") is None

    def test_explicit_seed_overrides_plan(self):
        inj = FaultInjector.from_config("nan@1 seed=3", seed=11)
        assert inj.seed == 11

    def test_token_round_trip(self):
        specs, _ = parse_plan("task_error@2.1:Box")
        assert specs[0].token() == "task_error@2.1:Box"


def fake_tasks():
    return [Task(tid, name, kind, lambda: None, channel=channel)
            for tid, (name, kind, channel) in enumerate([
                ("FB_nowait(L0)", "comm-post", ("fb", 0)),
                ("FB_nowait(L1)", "comm-post", ("fb", 1)),
                ("PC_coords_nowait(L1)", "comm-post", ("pc", 1)),
                ("Box(L0,b0)x2", "compute", None),
                ("Box(L0,b2)x1", "compute", None),
                ("FB_finish(L0)", "comm-wait", ("fb", 0)),
                ("FB_finish(L1)", "comm-wait", ("fb", 1)),
                ("Interp(L1,b0)", "interp", ("pc", 1)),
            ])]


class TestInstrument:
    """Faults are armed for one run of a stage: a map of task id -> error
    the scheduler raises in place of that task, the graph untouched."""

    def test_wrong_step_or_stage_is_inert(self):
        inj = FaultInjector.from_config("task_error@2.1")
        tasks = fake_tasks()
        assert inj.arm(tasks, step=2, stage=0) == {}
        assert inj.arm(tasks, step=1, stage=1) == {}
        assert not inj.fired
        assert len(inj.pending()) == 1

    def test_deterministic_target(self):
        targets = set()
        for _ in range(3):
            inj = FaultInjector.from_config("task_error@0 seed=7")
            inj.arm(fake_tasks(), step=0, stage=0)
            targets.add(inj.fired[0]["target"])
        assert len(targets) == 1

    def test_drop_comm_targets_matching_channel(self):
        inj = FaultInjector.from_config("drop_comm@0:fb")
        tasks = fake_tasks()
        armed = inj.arm(tasks, step=0, stage=0)
        assert inj.fired[0]["target"].startswith("FB_finish(")
        assert list(armed) in ([5], [6])
        with pytest.raises(InjectedCommDrop):
            Scheduler().run(tasks, armed=armed)

    def test_drop_comm_pc_targets_the_copys_consumer(self):
        """The coordinate ParallelCopy has no finish task: its consumers
        are the level's interpolations, never the post itself."""
        for seed in range(8):
            inj = FaultInjector.from_config(f"drop_comm@0:pc seed={seed}")
            assert list(inj.arm(fake_tasks(), step=0, stage=0)) == [7]
            assert inj.fired[0]["target"] == "Interp(L1,b0)"

    def test_task_error_arms_one_run_only(self):
        inj = FaultInjector.from_config("task_error@0:FB_finish")
        tasks = fake_tasks()
        ran = []
        for t in tasks:
            t.fn = (lambda name=t.name: ran.append(name))
        armed = inj.arm(tasks, step=0, stage=0)
        target = inj.fired[0]["target"]
        with pytest.raises(InjectedTaskError, match="FB_finish"):
            Scheduler().run(tasks, armed=armed)
        assert target.startswith("FB_finish(") and target not in ran
        assert inj.fired_by_kind() == {"task_error": 1}
        # one-shot: the retried step runs the same program, clean
        assert inj.arm(tasks, step=0, stage=0) == {}
        ran.clear()
        Scheduler().run(tasks, armed={})
        assert ran == [t.name for t in tasks]
        # without a prefix the target is a compute node
        inj = FaultInjector.from_config("task_error@0 seed=1")
        inj.arm(tasks, step=0, stage=0)
        assert inj.fired[0]["target"].startswith("Box(")

    def test_box_prefix_picks_a_batch_node_of_a_real_stage_graph(self):
        from repro.runtime.rk3graph import build_stage_graph

        sim = Crocco(SodShockTube(64), CroccoConfig(
            version="1.1", max_grid_size=16, blocking_factor=8))
        sim.initialize()
        g = build_stage_graph(sim)
        compute = [t for t in g.tasks if t.kind == "compute"]
        assert [t.name for t in compute] == ["Box(L0,b0)x4"]   # four equal boxes, one node
        inj = FaultInjector.from_config("task_error@0:Box")
        armed = inj.arm(g.tasks, step=0, stage=0)
        assert inj.fired[0]["target"] == "Box(L0,b0)x4"
        assert isinstance(armed[compute[0].tid], InjectedTaskError)
        sim.close()


def test_a_task_error_fires_once_and_the_retry_replays_the_cached_graph():
    """``task_error@1.0`` on a run that keeps its stage graph across
    steps: the fault fires once, the watchdog's retry of step 1 replays
    the very graph the failed attempt ran (no rebuild, no fault), and the
    run ends where the fault-free run ends, bit for bit."""

    def run(plan):
        sim = Crocco(SodShockTube(64), CroccoConfig(
            version="1.1", max_grid_size=16, blocking_factor=8,
            faults_plan=plan))
        sim.initialize()
        programs, stages = [], []
        inner = sim.engine.scheduler.run

        def run_stage(tasks, armed=None):
            programs.append(tuple(map(id, tasks)))
            stages.append((sim.step_count, bool(armed)))
            return inner(tasks, armed)

        sim.engine.scheduler.run = run_stage
        sim.run(3)
        out = np.concatenate([fab.whole().ravel() for _, fab in sim.state[0]])
        sim.close()
        return sim, programs, stages, out

    clean, _, clean_stages, expected = run(None)
    sim, programs, stages, got = run("task_error@1.0")
    assert sim.faults.fired_by_kind() == {"task_error": 1}
    assert sim.resilience.counters.get("step_retries", 0) == 1
    # step 1's first stage armed and failed, its replay ran clean
    assert stages == clean_stages[:3] + [(1, True)] + clean_stages[3:]
    assert len(set(programs)) == 1
    assert sim.engine.graphs_built == clean.engine.graphs_built == 1
    assert np.array_equal(got, expected)


class TestNanSeeding:
    def test_corrupts_exactly_one_cell(self):
        case = SodShockTube(32)
        sim = Crocco(case, CroccoConfig(
            version="1.1", max_grid_size=16, blocking_factor=8,
            watchdog=False, faults_plan="nan@1 seed=3"))
        sim.initialize()
        sim.run(2)
        bad = sum(int(np.isnan(fab.whole()).sum())
                  for _i, fab in sim.state[0])
        assert bad == 1
        assert sim.faults.fired_by_kind() == {"nan": 1}
        sim.close()

    def test_deterministic_cell(self):
        cells = set()
        for _ in range(2):
            case = SodShockTube(32)
            sim = Crocco(case, CroccoConfig(
                version="1.1", max_grid_size=16, blocking_factor=8,
                watchdog=False, faults_plan="nan@0 seed=12"))
            sim.initialize()
            sim.run(1)
            cells.add(sim.faults.fired[0]["target"])
            sim.close()
        assert len(cells) == 1


def test_drop_comm_pc_fires_on_a_coordinate_copy_consumer():
    """``drop_comm@1:pc`` on a two-level curvilinear DMR run: v2.0's
    coordinate ParallelCopy is consumed by the fine level's ``Interp``
    tasks, one of them fails once, the watchdog's retry recovers and the
    run ends bitwise where the fault-free run ends.  v2.1 has no
    coordinate copy: the plan stays unfired."""
    from repro.cases.dmr import DoubleMachReflection

    def run(version, plan=None):
        sim = Crocco(DoubleMachReflection(ncells=(64, 16), curvilinear=True),
                     CroccoConfig(version=version, nranks=3, ranks_per_node=3,
                                  max_level=1, max_grid_size=32,
                                  blocking_factor=8, regrid_int=2,
                                  faults_plan=plan))
        sim.initialize()
        sim.run(3)
        out = {(lev, i): fab.whole().copy()
               for lev, mf in sim.state.items() for i, fab in mf}
        sim.close()
        return sim, out

    _, expected = run("2.0")
    sim, got = run("2.0", "drop_comm@1:pc")
    assert sim.faults.fired_by_kind() == {"drop_comm": 1}
    assert sim.faults.fired[0]["target"] == "Interp(L1)"
    assert sim.resilience.counters.get("step_retries", 0) == 1
    assert got.keys() == expected.keys()
    for key, arr in expected.items():
        assert np.array_equal(got[key], arr), key
    sim, _ = run("2.1", "drop_comm@1:pc")
    assert not sim.faults.fired
    assert [s.token() for s in sim.faults.pending()] == ["drop_comm@1:pc"]
