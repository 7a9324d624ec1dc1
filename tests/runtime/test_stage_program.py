"""The stage program is the program the inferred DAG ran.

``rk3graph.build_stage_graph`` emits each RK stage's tasks in run order
with five structural edge rules.  The reference is the builder it
replaced (``tests/runtime/hazard_oracle.py``: read/write sets, hazard
inference, the ready-queue order): in every RK stage of the benchmark
decks, the example DMR deck, a churning hierarchy across its regrids and
the v1.1 Sod deck, the executed task names must be the oracle's
ready-queue order and the transitive closure of the new edges must be
that of the inferred ones (so the critical path is the same).
"""

from pathlib import Path

import pytest

from repro.cli import build_case
from repro.core.crocco import Crocco
from repro.io.inputs import InputDeck
from repro.numerics.rk3 import NSTAGES
from tests.runtime import hazard_oracle
from tests.runtime.test_graph_replay import TaskNames, advance, churn_sim

ROOT = Path(__file__).parents[2]
DECKS = sorted((ROOT / "benchmarks" / "e2e" / "decks").glob("*.inputs")) + [
    ROOT / "examples" / "decks" / "dmr.inputs"]


def closure(tasks):
    """``{name: names of every task it transitively follows}``."""
    before = {}
    for t in tasks:   # deps point backwards: each is known when needed
        reach = set()
        for d in t.deps:
            dep = tasks[d].name
            reach |= before[dep] | {dep}
        before[t.name] = reach
    return before


def check_every_stage(sim):
    """Wrap ``sim``'s engine so that every RK stage is compared with the
    oracle built on the same level storage; returns the stages seen."""
    ran = TaskNames()
    sim.engine.scheduler.tracer = ran
    inner, seen = sim.engine.run_stage, []

    def run_stage(dt, stage):
        oracle = hazard_oracle.build_stage_graph(sim)
        order, _ = hazard_oracle.replay_order(oracle, oracle.ntasks(stage))
        program = sim.engine.stage_graph().stage_tasks(stage)
        first = len(ran.names)
        out = inner(dt, stage)
        assert ran.names[first:] == [t.name for t in order], stage
        assert closure(program) == closure(oracle.tasks[:len(order)]), stage
        seen.append(stage)
        return out

    sim.engine.run_stage = run_stage
    return seen


def deck_sim(path):
    config, run = InputDeck.from_file(path).resolve({})
    sim = Crocco(build_case(run), config)
    sim.initialize()
    return sim, run.steps


@pytest.mark.parametrize("deck", DECKS, ids=lambda p: p.stem)
def test_deck_runs_the_oracles_program(deck):
    sim, steps = deck_sim(deck)
    seen = check_every_stage(sim)
    sim.run(min(steps, 2))
    levels = sim.finest_level + 1
    sim.close()
    assert seen == list(range(NSTAGES)) * min(steps, 2)
    assert levels > 1 or deck.stem == "dmr3d_uniform"


def test_sod_v11_runs_the_oracles_program():
    sim, _ = deck_sim(ROOT / "examples" / "decks" / "sod.inputs")
    seen = check_every_stage(sim)
    sim.run(2)
    sim.close()
    assert seen == list(range(NSTAGES)) * 2


def test_churning_hierarchy_runs_the_oracles_program_across_regrids():
    sim = churn_sim()
    seen = check_every_stage(sim)
    advance(sim)
    regrids, builds = sim.regrid_count, sim.engine.graphs_built
    sim.close()
    assert len(seen) == NSTAGES * 6 and regrids > 1 and builds > 2
