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
import pytest

from repro.backend import ExecutionBackend, use_backend
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.kernels import batch as batch_module
from repro.numerics.cfl import local_max_rate
from repro.resilience.watchdog import StepWatchdog
from repro.runtime import rk3graph

STEPS = 6


def churn_sim(**config):
    """Small boxes, rebuilt every step (the shape of ``dmr_churn_v21``)."""
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(**{**dict(
        version="2.1", nranks=3, ranks_per_node=3, max_level=2,
        max_grid_size=16, blocking_factor=8, regrid_int=1,
        backend_target="device"), **config}))
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


def numpy_rates(sim):
    """Each rank's largest CFL rate by the NumPy reference, over the valid
    cells of every batch of the current level storage."""
    rates, ng = [0.0] * sim.comm.nranks, sim.ng
    valid = (slice(None), slice(None)) + (slice(ng, -ng),) * sim.case.layout.dim
    for lev, batches in sim.batches.items():
        for b in batches:
            got = local_max_rate(sim.case.layout, sim.case.eos,
                                 sim.state[lev].arrays[b.group][valid],
                                 b.metrics.interior(ng))
            for rank, r in zip(b.ranks, got.tolist()):
                rates[rank] = max(rates[rank], r)
    return rates


def test_rates_are_those_of_the_current_storage(monkeypatch):
    """ComputeDt runs the rates the stage program bound, and the program
    dies with its storage: in every step of the churn run (a regrid each,
    and a remake under an unchanged fine level), after a remake between
    steps (the program then built by ``max_rates`` itself) and after each
    watchdog rollback wrote the state back in place, ``max_rates()`` is
    the NumPy ``local_max_rate`` over the valid cells of the current
    storage, bit for bit."""
    sim = churn_sim(faults_plan="nan@2 nan@4")
    seen = Counter()
    rates, restore = Crocco.max_rates, StepWatchdog._restore

    def checked_rates(self):
        seen["built here"] += self.engine._graph is None
        got = rates(self)
        assert got == numpy_rates(self)
        seen["checked"] += 1
        return got

    def checked_restore(self, sim, snap):
        restore(self, sim, snap)
        seen["rollbacks"] += 1
        sim.max_rates()

    def remade():
        with use_backend(sim.exec_backend):
            sim.remake_level(1, sim.box_arrays[1], sim.dmaps[1])
        assert sim.engine._graph is None
        sim.max_rates()

    monkeypatch.setattr(Crocco, "max_rates", checked_rates)
    monkeypatch.setattr(StepWatchdog, "_restore", checked_restore)
    advance(sim, remade)
    sim.close()
    assert seen["rollbacks"] == 2 and seen["built here"] == STEPS
    assert seen["checked"] == 2 * STEPS + seen["rollbacks"]


@pytest.mark.parametrize("target", ["host", "device", "fused"])
def test_compute_dt_is_one_reduction_per_owner(target, monkeypatch):
    """Every ComputeDt of the churn run is one ``reduction`` launch per
    owning rank of each batch of the current storage, of its members'
    valid points — the ``parallel_for`` calls on every target and, on
    the accounting ones, the records of each rank's device."""
    sim = churn_sim(backend_target=target)
    calls, checked = [], []
    launch, rates = ExecutionBackend.parallel_for, Crocco.max_rates

    def recorded(self, name, fn, npoints, spec=None):
        if name == "ComputeDt":
            calls.append((spec.rank, (name, npoints, spec.kernel_class)))
        return launch(self, name, fn, npoints, spec)

    def records(sim):
        return Counter((rank, tuple(rec)) for rank, dev in
                       enumerate(sim.devices) for rec, n in dev.table.items()
                       for _ in range(n) if rec.name == "ComputeDt")

    def one_per_owner(self):
        del calls[:]
        before = records(self)
        got = rates(self)
        want = Counter()
        for lev, batches in self.batches.items():
            for b in batches:
                npts = self.du[lev].arrays[b.group][0, 0].size
                for rank, n in Counter(b.ranks).items():
                    want[rank, ("ComputeDt", n * npts, "reduction")] += 1
        assert Counter(calls) == want
        if self.devices:
            assert records(self) - before == want
        checked.append(target)
        return got

    monkeypatch.setattr(ExecutionBackend, "parallel_for", recorded)
    monkeypatch.setattr(Crocco, "max_rates", one_per_owner)
    advance(sim)
    sim.close()
    assert len(checked) == STEPS and bool(sim.devices) == (target != "host")
