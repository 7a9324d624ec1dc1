"""The version x execution-target x kernel-implementation table: every
CRoCCo version on every built-in target, with the compiled kernels of the
sweep (the pre-pass and the row kernel, both energy forms: the fortran
orderings split ``fused``, the cpp ones ``distributed``) and with the
NumPy pre-pass and combination they fall back to.

The target is pinned in the config (never through REPRO_BACKEND — CI runs
tier-1 under that variable), so each cell is the configuration it names.
Declared equivalence: **bitwise** along both the target axis (one sweep,
different accounting — ``fused`` recomputes the primitives per direction
as ``device`` does) and the implementation axis (the C code is the NumPy
code operation for operation).
"""

from pathlib import Path

import numpy as np
import pytest

from repro.cases.dmr import DoubleMachReflection
from repro.cli import build_case
from repro.core.crocco import Crocco, CroccoConfig
from repro.core.versions import VERSIONS
from repro.io.inputs import InputDeck
from repro.kernels.device import DeviceMemoryError
from tests.numerics import weno_oracle

ROOT = Path(__file__).resolve().parents[2]
TARGETS = ("host", "device", "fused")
IMPLS = ("numpy", "compiled")
NO_TAGS = np.empty((0, 2), dtype=np.int64)


def make_sim(version, target):
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    return Crocco(case, CroccoConfig(
        version=version, nranks=2, ranks_per_node=2, max_level=1,
        max_grid_size=32, blocking_factor=8, regrid_int=2,
        backend_target=target))


def final_state(sim, steps=2):
    sim.initialize()
    sim.run(steps)
    return {(lev, i): fab.whole().copy()
            for lev in range(sim.finest_level + 1)
            for i, fab in sim.state[lev]}


def in_use(sim):
    return [d.bytes_in_use for d in sim.devices]


@pytest.mark.parametrize("version", sorted(VERSIONS))
def test_version_on_every_target(version, monkeypatch):
    # (where no library can be had — CI's CC=/bin/false leg — both
    # columns of the implementation axis are the NumPy one)
    sims, states = {}, {}
    try:
        for impl in IMPLS:
            with monkeypatch.context() as m:
                if impl == "numpy":
                    weno_oracle.use_numpy_sweep(m)
                for target in TARGETS:
                    sim = sims[impl, target] = make_sim(version, target)
                    states[impl, target] = final_state(sim)
        ref = states["numpy", "host"]
        for cell, state in states.items():
            assert set(state) == set(ref)
            for key, fab in ref.items():
                assert np.array_equal(state[key], fab), (cell, key)
        for (impl, target), sim in sims.items():
            accounts = target != "host"
            # devices, launches and memory exist exactly when the target
            # accounts — whatever the version's own default is
            assert bool(sim.devices) == accounts
            assert bool(sim.exec_backend.class_totals()) == accounts
            assert any(in_use(sim)) == accounts
            assert sim.kernels.ordering == VERSIONS[version].ordering
    finally:
        for sim in sims.values():
            sim.close()


@pytest.mark.parametrize("target", ("device", "fused"))
def test_residency_returns_when_a_level_is_cleared(target):
    sim = make_sim("2.0", target)
    tagging = sim.error_est
    sim.error_est = lambda lev: NO_TAGS
    sim.initialize()
    assert sim.finest_level == 0
    coarse_only = in_use(sim)
    assert all(coarse_only)
    sim.error_est = tagging
    sim.regrid()
    assert sim.finest_level == 1
    assert sum(in_use(sim)) > sum(coarse_only)
    sim.error_est = lambda lev: NO_TAGS
    sim.regrid()
    assert sim.finest_level == 0
    assert in_use(sim) == coarse_only
    sim.close()


@pytest.mark.parametrize("target", ("device", "fused"))
def test_residency_is_every_multifab_of_the_level(target):
    """A rank's resident bytes are its fabs of each MultiFab of the
    level — state, ``du``, coordinates and metrics: the 3-D deck's level
    0 reserves its 983,040 metric bytes too, and clearing the level
    returns every byte."""
    config, run = InputDeck.from_file(
        ROOT / "examples/decks/dmr3d.inputs").resolve(
            {"backend_target": target})
    sim = Crocco(build_case(run), config)
    sim.initialize()
    assert sim.finest_level == 0 and sim.metrics[0].buffer.nbytes == 983_040
    per_rank = [0] * sim.comm.nranks
    for store in (sim.state, sim.du, sim.coords, sim.metrics):
        for i, fab in store[0]:
            per_rank[store[0].dm[i]] += fab.data.nbytes
    assert in_use(sim) == per_rank
    sim.clear_level(0)
    assert not any(in_use(sim))
    sim.close()


@pytest.mark.parametrize("version", ("1.2", "2.0"))
def test_capacity_limited_device_raises_through_the_backend(version):
    sim = make_sim(version, "device")
    sim.devices[1].memory_bytes = 4096
    with pytest.raises(DeviceMemoryError, match="V100-rank1"):
        sim.initialize()
    sim.close()
