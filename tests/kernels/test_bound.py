"""Bound stages: the RK stage a stage program binds once is the per-call
right-hand side and update, bit for bit and launch for launch.

``KernelSet.bind`` resolves what a stage's launches need once — owning
ranks' specs, point and scratch counts and, where the compiled sweep
takes the stage, its converted library calls into the backend's shared
scratch and ``rhs`` roles; the per-call ``rhs`` / ``update`` bind for the
one call, into an array of the caller's own.  Both must leave the same
state and record the same launches in the same order, on every target,
in 2-D and 3-D, for multi-rank batches of several shapes that share the
scratch, without the library, and for the kernels that keep the NumPy
sweeps (``mixed`` precision, ``Viscous``).
"""

import numpy as np
import pytest

from repro.cases.dmr import DoubleMachReflection
from repro.cases.reacting import IgnitionFront
from repro.core.crocco import Crocco, CroccoConfig
from repro.numerics import native
from repro.numerics.metrics import StackedMetrics
from repro.numerics.state import StateLayout
from repro.numerics.viscous import ViscousFlux, constant_viscosity
from repro.runtime.rk3graph import bound_batches
from tests.conftest import logged_launches
from tests.kernels.test_batched import kernels_on, member
from tests.numerics import weno_oracle

#: per dimension: (grown shape, owning rank of each member) of each batch
#: of one program, run in this order every stage
#: (the first is the smallest: the shared roles must be sized before any
#: stage takes an address)
BATCHES = {2: [((18, 13), (2,)), ((14, 16), (0, 1, 0)), ((14, 16), (1, 1))],
           3: [((10, 12, 10), (1,)), ((11, 10, 12), (0, 2))]}
KINDS = ["compiled", "numpy", "mixed", "viscous"]


def program(dim, seed=3):
    """The batches of one program: ``(u, du, metrics, ranks)`` each."""
    rng = np.random.default_rng(seed)
    layout, out = StateLayout(dim=dim), []
    for grown, ranks in BATCHES[dim]:
        members = [member(rng, layout, grown, curvilinear=True)
                   for _ in ranks]
        u = np.stack([u for u, _ in members], axis=1)
        du = 0.01 * rng.normal(size=u[(Ellipsis,) + (slice(4, -4),) * dim]
                               .shape)
        out.append((u, du, StackedMetrics([m for _, m in members]), ranks))
    return out


def kernels(target, dim, kind):
    ks = kernels_on(target, StateLayout(dim=dim), dict(
        ordering="cpp" if dim == 3 else "fortran", convective=None,
        viscous=(ViscousFlux(constant_viscosity(1e-3))
                 if kind == "viscous" else None)),
        "mixed" if kind == "mixed" else "double")
    assert ks.nghost == 4
    return ks


def run(ks, batches, bound):
    """Three RK stages of every batch, the program's way (one bind, the
    stages sharing the scratch) or per call; the launches it recorded."""
    stages = ks.bind([(u, m, 4, r) for u, _, m, r in batches]) if bound \
        else None
    with logged_launches() as log:
        for k in range(3):
            for b, (u, du, metrics, ranks) in enumerate(batches):
                if bound:
                    rhs = ks.rhs(stages[b])
                    ks.update(stages[b], du, rhs, 1e-3, k)
                else:
                    rhs = ks.rhs(u, metrics, 4, ranks)
                    ks.update(u[(Ellipsis,) + (slice(4, -4),) * (u.ndim - 2)],
                              du, rhs, 1e-3, k, ranks)
    return stages, log.events


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("target", ["host", "device", "fused"])
def test_bound_stage_is_the_per_call_stage(target, dim, kind, monkeypatch):
    if dim == 3 and kind == "viscous":
        pytest.skip("Viscous is exercised in 2-D")
    if kind == "numpy":
        weno_oracle.use_numpy_sweep(monkeypatch)
    elif native.kernels() is None:
        pytest.skip("no compiled kernel here: " + native.status()["detail"])
    per_call, bound = program(dim), program(dim)
    one, many = kernels(target, dim, kind), kernels(target, dim, kind)
    _, launches = run(one, per_call, bound=False)
    stages, bound_launches = run(many, bound, bound=True)

    # the library's calls are bound exactly where the sweep is its own
    assert all((s.calls is not None) == (kind == "compiled") for s in stages)
    for (u, du, _, _), (ub, dub, _, _) in zip(per_call, bound):
        assert np.array_equal(u, ub) and np.array_equal(du, dub)
    if kind == "compiled":
        # and both are the NumPy sweep's, which binds nothing
        reference = program(dim)
        with monkeypatch.context() as mp:
            weno_oracle.use_numpy_sweep(mp)
            run(kernels(target, dim, kind), reference, bound=False)
        for (u, du, _, _), (ur, dur, _, _) in zip(bound, reference):
            assert np.array_equal(u, ur) and np.array_equal(du, dur)
    assert bound_launches == launches
    assert ([d.table for d in one.exec_backend.devices]
            == [d.table for d in many.exec_backend.devices])
    if kind == "compiled":
        # one program's stages share one rhs buffer (one runs at a time)
        assert len({s.out.__array_interface__["data"][0]
                    for s in stages}) == 1


def test_a_per_call_rhs_is_the_callers():
    """Two per-call right-hand sides never share memory, with each other
    or with the shared ``rhs`` role of a bound program."""
    dim = 2
    ks = kernels("device", dim, "compiled")
    (u, _, metrics, ranks), (v, _, other, vranks) = program(dim)[:2]
    stage, = ks.bind([(u, metrics, 4, ranks)])
    first = ks.rhs(u, metrics, 4, ranks)
    kept = first.copy()
    second = ks.rhs(v, other, 4, vranks)
    ks.rhs(stage)
    assert not np.shares_memory(first, second)
    if stage.out is not None:
        assert not np.shares_memory(first, stage.out)
        assert np.array_equal(stage.out, first)
    assert np.array_equal(first, kept)


def sim_of(case, **config):
    sim = Crocco(case, CroccoConfig(backend_target="device", **config))
    sim.initialize()
    return sim


def test_sources_are_bound_only_for_a_case_that_has_them():
    """``Case.source`` is asked per member and stage only by a case that
    overrides it: every member of the ignition front once, nothing for
    the double Mach reflection."""
    ignition = sim_of(IgnitionFront(ncells=64), version="1.1")
    dmr = sim_of(DoubleMachReflection(ncells=(32, 8), curvilinear=True),
                 version="2.0", max_level=1, nranks=2, ranks_per_node=2)
    for sim, sourced in ((ignition, True), (dmr, False)):
        for lev, bound in enumerate(bound_batches(sim)):
            for batch, b in zip(sim.batches[lev], bound):
                assert len(b.sources) == (len(batch.ids) if sourced else 0)
                for k, (member, u, coords, metrics) in enumerate(b.sources):
                    assert member == k
                    assert np.shares_memory(u, sim.state[lev].arrays[batch.group])
                    assert np.shares_memory(
                        coords, sim.coords[lev].arrays[batch.group])
        sim.close()
