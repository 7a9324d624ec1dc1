"""Checkpoint/restart determinism of the task-graph runtime.

The runtime must not perturb restart semantics: a run continued from a
checkpoint matches the uninterrupted run bit for bit.
"""

import numpy as np

from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.io.checkpoint import load_checkpoint, save_checkpoint


def make_sim():
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    return Crocco(case, CroccoConfig(
        version="2.0", nranks=6, ranks_per_node=6, max_level=1,
        max_grid_size=32, blocking_factor=8, regrid_int=2,
    ))


def snapshot(sim):
    return {(lev, i): fab.whole().copy()
            for lev in range(sim.finest_level + 1)
            for i, fab in sim.state[lev]}


def run_with_restart(tmp_path):
    """3 steps, checkpoint, 2 more — and separately restart + 2 steps."""
    sim = make_sim()
    sim.initialize()
    sim.run(3)
    ck = save_checkpoint(tmp_path / "chk", sim)
    sim.run(2)
    straight = snapshot(sim)
    sim.close()

    sim2 = make_sim()
    load_checkpoint(ck, sim2)
    assert sim2.step_count == 3
    sim2.run(2)
    restarted = snapshot(sim2)
    sim2.close()
    return straight, restarted


def test_serial_restart_bit_identical(tmp_path):
    straight, restarted = run_with_restart(tmp_path)
    assert set(straight) == set(restarted)
    for k in straight:
        np.testing.assert_array_equal(straight[k], restarted[k])
