"""Whole runs on the shipped WENO combination against the same runs on the
reference arithmetic it replaced (``tests/numerics/weno_oracle.py``).

The rank-2 / ``out=`` combination re-associates the smoothness indicators
and the regularization, which the paper accepts for its own port at a
relative L2 drift under 1e-7 (Sec. IV-A); held here on every fab of the
2-D AMR deck and of the 3-D deck after two steps.
"""

import numpy as np
import pytest

from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from tests.numerics import weno_oracle

#: the paper's port-validation criterion
DRIFT_TOL = 1e-7

DECKS = {
    "dmr_amr_2d": ((64, 16), dict(version="2.0", nranks=2, ranks_per_node=2,
                                  max_level=1, max_grid_size=32,
                                  blocking_factor=8, regrid_int=2)),
    "dmr_3d": ((32, 8, 8), dict(version="2.1", nranks=2, ranks_per_node=2,
                                max_level=0, max_grid_size=16,
                                blocking_factor=8)),
}


def final_state(ncells, config, steps=2):
    sim = Crocco(DoubleMachReflection(ncells=ncells, curvilinear=True),
                 CroccoConfig(**config))
    try:
        sim.initialize()
        sim.run(steps)
        return {(lev, i): fab.whole().copy()
                for lev in range(sim.finest_level + 1)
                for i, fab in sim.state[lev]}
    finally:
        sim.close()


@pytest.mark.parametrize("deck", sorted(DECKS))
def test_shipped_combination_drifts_under_1e_minus_7_from_the_oracle(
        deck, monkeypatch):
    ncells, config = DECKS[deck]
    shipped = final_state(ncells, config)
    weno_oracle.install(monkeypatch)
    reference = final_state(ncells, config)
    # the same hierarchy: no tag flipped
    assert set(shipped) == set(reference)
    worst = 0.0
    for key, ref in reference.items():
        assert shipped[key].shape == ref.shape
        worst = max(worst, np.linalg.norm(shipped[key] - ref)
                    / np.linalg.norm(ref))
    # re-associated, so not bitwise — a zero here means the oracle was
    # never reached
    assert 0.0 < worst < DRIFT_TOL
