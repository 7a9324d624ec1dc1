"""Tests for pricing recorded (functional-run) traffic on the network model."""

import numpy as np
import pytest

from repro.mpi.ledger import CommLedger
from repro.perfmodel.ledger_pricing import price_ledger


def test_empty_ledger():
    priced = price_ledger(CommLedger(), nranks=4, nodes=2)
    assert priced.total == 0.0
    assert all(v == 0.0 for v in priced.seconds.values())


def test_validation_of_inputs():
    with pytest.raises(ValueError):
        price_ledger(CommLedger(), nranks=0, nodes=1)
    with pytest.raises(ValueError):
        price_ledger(CommLedger(), nranks=4, nodes=0)


def test_p2p_pricing_scales_with_busiest_rank():
    led = CommLedger(ranks_per_node=2)
    # rank 1 receives 10 MB off-node; others idle
    led.record(2, 1, 10_000_000, "fillboundary")
    t1 = price_ledger(led, nranks=4, nodes=2).seconds["fillboundary"]
    led.record(2, 1, 10_000_000, "fillboundary")
    t2 = price_ledger(led, nranks=4, nodes=2).seconds["fillboundary"]
    assert t2 > t1 * 1.5  # doubling the busiest rank's volume ~doubles time


def test_local_messages_are_free_moves():
    led = CommLedger()
    led.record(3, 3, 1_000_000, "fillboundary")  # self-copy
    priced = price_ledger(led, nranks=4, nodes=2)
    assert priced.off_node_bytes["fillboundary"] == 0
    assert priced.on_node_bytes["fillboundary"] == 0


def test_parallelcopy_pays_metadata():
    led = CommLedger()
    led.record(0, 1, 8, "parallelcopy")
    led2 = CommLedger()
    led2.record(0, 1, 8, "fillboundary")
    pc = price_ledger(led, nranks=6144, nodes=1024).seconds["parallelcopy"]
    fb = price_ledger(led2, nranks=6144, nodes=1024).seconds["fillboundary"]
    assert pc > fb + 1e-3  # the global handshake term dominates tiny volumes


def test_functional_run_priceable_end_to_end():
    """Price a real DMR run's ledger at its own rank/node counts."""
    from repro.cases.dmr import DoubleMachReflection
    from repro.core.crocco import Crocco, CroccoConfig

    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(version="2.0", nranks=4, ranks_per_node=2,
                                    max_level=1, max_grid_size=32,
                                    regrid_int=4))
    sim.initialize()
    sim.comm.ledger.clear()
    sim.step()
    priced = price_ledger(sim.comm.ledger, nranks=4, nodes=2)
    assert priced.total > 0
    # the curvilinear interpolator's coordinate gathers dominate
    assert priced.seconds["parallelcopy"] > 0
    assert priced.messages["fillboundary"] > 0
    assert priced.off_node_bytes["fillboundary"] > 0


# -- charged kernel seconds ---------------------------------------------------


def test_launch_totals_price_charged_seconds():
    from repro.kernels.device import GpuDevice, LaunchRecord, launch_totals
    from repro.machine.gpu import V100Model

    from repro.kernels.counts import UPDATE_BUDGET, WENO_BUDGET

    dev = GpuDevice()
    for name in ("WENOx", "WENOx", "Update"):
        dev.run(LaunchRecord(name, 50_000), lambda: None)
    t = launch_totals([dev])
    assert set(t) == {"WENOx", "Update"}
    assert {name: tot["launches"] for name, tot in t.items()} == {
        "WENOx": 2, "Update": 1}
    m = V100Model()

    assert t["WENOx"]["seconds"] == pytest.approx(
        2 * m.kernel_time(WENO_BUDGET, 50_000))
