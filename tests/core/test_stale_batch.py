"""The stale-batch trap: a batch describes one level storage and dies with it.

Compute batches (member ids, owning ranks, stacked metrics) are built by
``Crocco._build_level_storage`` and kept in ``sim.batches[lev]`` next to
the MultiFabs they index.  A regrid that replaces a level must never run
a batch built for the storage it replaced — not even when
``AmrCore.regrid`` skips ``remake_level`` for an unchanged fine level
above the replaced one.
"""

from collections import Counter

import numpy as np

from repro.backend import use_backend
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.kernels import batch as batch_module
from repro.runtime import rk3graph

STEPS = 6


def churn_sim():
    """Small boxes, rebuilt every step (the shape of ``dmr_churn_v21``)."""
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(
        version="2.1", nranks=3, ranks_per_node=3, max_level=2,
        max_grid_size=16, blocking_factor=8, regrid_int=1,
        backend_target="device"))
    sim.initialize()
    return sim


def advance(sim, after_step=lambda: None):
    """STEPS steps; before the fourth, level 1 is remade on its own boxes
    under level 2 — the storage a regrid replaces below a fine level whose
    BoxArray did not change (``AmrCore.regrid`` then skips its
    ``remake_level``).  Returns every fab's final array."""
    for step in range(STEPS):
        if step == 3:
            assert sim.finest_level == 2
            kept = sim.state[2]
            with use_backend(sim.exec_backend):
                sim.remake_level(1, sim.box_arrays[1], sim.dmaps[1])
            assert sim.state[2] is kept
        sim.step()
        after_step()
    return {(lev, i): fab.whole().copy()
            for lev in range(sim.finest_level + 1)
            for i, fab in sim.state[lev]}


def test_stale_batch_trap(monkeypatch):
    sim = churn_sim()
    ran, seen = [], {}
    inner = rk3graph.rhs_update

    def live_only(kernels, case, bound, *rest):
        """Every batch that runs belongs to the live level storage, and
        runs on its group arrays: its members' fabs are views into them."""
        live = [(lev, b) for lev, bs in sim.batches.items() for b in bs
                if b.metrics is bound.stage.metrics]
        assert len(live) == 1, "a batch of a replaced level storage ran"
        lev, b = live[0]
        per = bound.stage.u_valid[0, 0].size  # one member's valid points
        for shares in (bound.stage.update_shares, bound.stage.viscous_shares):
            assert {spec.rank: n // per for n, spec in shares} == Counter(
                b.ranks)
        u, du = bound.stage.u, bound.du
        assert u is sim.state[lev].arrays[b.group]
        assert du is sim.du[lev].arrays[b.group]
        for k, i in enumerate(b.ids):
            assert np.shares_memory(u[:, k], sim.state[lev].fab(i).data)
            assert np.shares_memory(du[:, k], sim.du[lev].fab(i).data)
            # and their own metrics out of the level's metric group array
            assert np.shares_memory(sim.metrics[lev].fab(i).data,
                                    bound.stage.metrics.jacobian()[k])
        ran.append(len(b.ids))
        return inner(kernels, case, bound, *rest)

    def reachable_only_through_their_storage():
        assert set(sim.batches) == set(sim.state)
        for lev, bs in sim.batches.items():
            assert (sorted(i for b in bs for i in b.ids)
                    == [i for i, _ in sim.state[lev]])
            seen.update({id(b): b for b in bs})

    monkeypatch.setattr(rk3graph, "rhs_update", live_only)
    batched = advance(sim, reachable_only_through_their_storage)
    nbatches = sum(len(bs) for bs in sim.batches.values())
    sim.close()
    assert max(ran) > 1 and nbatches < len(batched), "the deck must batch"
    assert len(seen) > nbatches, "regrids must have replaced batches"

    # the per-member reference: the same run with every box a batch of one
    monkeypatch.setattr(rk3graph, "rhs_update", inner)
    monkeypatch.setattr(batch_module, "BATCH_CELLS", 0)
    ref = churn_sim()
    reference = advance(ref)
    assert all(len(b.ids) == 1 for bs in ref.batches.values() for b in bs)
    ref.close()
    assert set(batched) == set(reference)
    for key in reference:
        assert np.array_equal(batched[key], reference[key]), key


def test_clearing_a_level_drops_its_batches():
    sim = churn_sim()
    lev = sim.finest_level
    assert sim.batches[lev]
    sim.clear_level(lev)
    assert lev not in sim.batches and lev not in sim.state
    assert lev not in sim.metrics and lev not in sim.coords
    sim.close()
