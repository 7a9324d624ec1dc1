"""The stale-pointer trap: a bound batch hands the library addresses into
the storage it was bound to, and dies with it.

``rk3graph.bound_batches`` binds every batch of a stage program once: its
compiled sweeps and ComputeDt rate hold converted pointers into the
level's state buffer, its metric stacks and the backend's scratch.  The program is dropped with
the level storage it was built for, and the bound batches with it.  So,
over a run that regrids every step: after every remake no bound batch is
reachable any more (its weak reference is dead, with no garbage
collection asked for), and every address a reachable one will hand the
library lies in the current level's buffer, its metric stacks or an
array the bound call itself keeps alive.
"""

import ctypes
import weakref

import pytest

from repro.backend import use_backend
from repro.core.crocco import Crocco
from repro.kernels.api import _in_order
from repro.kernels.batch import BoundBatch
from repro.numerics import native
from tests.core.test_stale_batch import churn_sim

STEPS = 8


def program_batches(sim):
    """The bound batches the live stage program runs (none when the
    program was dropped)."""
    graph = sim.engine._graph
    for task in graph.tasks if graph is not None else ():
        for cell in task.fn.__closure__ or ():
            if isinstance(cell.cell_contents, BoundBatch):
                yield cell.cell_contents


def inside(address, *arrays):
    """Whether ``address`` lies in the memory of one of ``arrays``."""
    for a in arrays:
        lo = a.__array_interface__["data"][0]
        if lo <= address < lo + a.nbytes:
            return True
    return False


def library_calls(stage):
    for call in stage.calls or ():
        yield from call.args[0] if call.func is _in_order else (call,)


def rate_call(stage):
    """The library call a stage's bound rate makes."""
    cells = dict(zip(stage.rate.__code__.co_freevars, stage.rate.__closure__))
    return cells["call"].cell_contents


def check_addresses(sim):
    """Every address the live program's bound batches hand the library is
    in live memory; returns how many calls were checked."""
    live = {id(b.metrics): (lev, b) for lev, bs in sim.batches.items()
            for b in bs}
    checked = 0
    for bound in program_batches(sim):
        stage = bound.stage
        lev, batch = live[id(stage.metrics)]  # bound to a batch of the storage
        assert stage.u is sim.state[lev].arrays[batch.group]
        assert bound.du is sim.du[lev].arrays[batch.group]
        metrics = [batch.metrics.m(d) for d in range(sim.case.layout.dim)]
        for call in library_calls(stage):
            pointers = [a.value for a in call.args
                        if isinstance(a, ctypes.c_void_p)]
            u, m, J = pointers[:3]
            assert inside(u, sim.state[lev].buffer)
            assert inside(m, *metrics) and inside(J, batch.metrics.jacobian())
            for address in pointers:
                assert inside(address, sim.state[lev].buffer, *metrics,
                              batch.metrics.jacobian(), *call.holds)
            checked += 1
        # ComputeDt's rate: u, each m, J and the rates it writes
        call = rate_call(stage)
        u, m, J, out = (call.args[0].value, call.args[1], call.args[2].value,
                        call.args[-1].value)
        assert inside(u, sim.state[lev].buffer)
        assert all(inside(x, *metrics) for x in m[:len(metrics)])
        assert inside(J, batch.metrics.jacobian())
        assert inside(out, *stage.rate.holds)
        checked += 1
    return checked


def test_stale_pointer_trap(monkeypatch):
    if native.kernels() is None:
        pytest.skip("no compiled kernel here: " + native.status()["detail"])
    sim = churn_sim()
    seen, remakes = [], []

    def remake(inner):
        def checked(self, lev, ba, dm):
            inner(self, lev, ba, dm)
            # the remake dropped the program: nothing bound survives it
            assert self.engine._graph is None
            assert all(ref() is None for ref in seen), "a stale batch lives"
            remakes.append(lev)
        return checked

    monkeypatch.setattr(Crocco, "remake_level", remake(Crocco.remake_level))
    monkeypatch.setattr(Crocco, "make_new_level_from_coarse",
                        remake(Crocco.make_new_level_from_coarse))
    checked = 0
    for step in range(STEPS):
        if step == 3:
            # level 1 replaced under a level 2 a regrid would keep
            with use_backend(sim.exec_backend):
                sim.remake_level(1, sim.box_arrays[1], sim.dmaps[1])
        sim.step()
        checked += check_addresses(sim)
        seen += [weakref.ref(b.stage) for b in program_batches(sim)]
    sim.close()
    assert len(remakes) > STEPS, "the run must remake levels every step"
    # every batch of every program was checked: one call per direction
    # and its rate
    assert checked == (sim.case.layout.dim + 1) * len(seen) > 0

