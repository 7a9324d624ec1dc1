"""Tests for the simulated communicator and message ledger."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpi.comm import Communicator
from repro.mpi.ledger import CommLedger, Message
from tests.conftest import logged_messages


def test_message_local_flag():
    """A message whose source and destination rank coincide is a local
    move: it is counted, but in neither side of the on/off-node split."""
    led = CommLedger(ranks_per_node=2)
    led.record(2, 2, 100, "fillboundary")
    led.record(1, 2, 100, "fillboundary")
    assert led.traffic()["fillboundary"] == {"messages": 2, "bytes": 200,
                                             "off_node_bytes": 100}


def test_ledger_record_and_query():
    led = CommLedger(ranks_per_node=2)
    led.record(0, 1, 100, "fillboundary")
    led.record(0, 2, 50, "parallelcopy")
    led.record(3, 3, 10, "fillboundary")
    assert len(led) == 3
    assert led.total_bytes() == 160
    assert led.total_bytes("fillboundary") == 110
    assert led.by_kind() == {"fillboundary": (2, 110),
                             "parallelcopy": (1, 50)}
    # the same-rank message is in neither side of the on/off-node split
    assert led.traffic()["fillboundary"] == {"messages": 2, "bytes": 110,
                                             "on_node_bytes": 100}


def test_ledger_kind_validation():
    led = CommLedger()
    with pytest.raises(ValueError):
        led.record(0, 1, 10, "bogus")
    with pytest.raises(ValueError):
        led.record(0, 1, -1, "reduce")


def test_on_node_off_node_split():
    led = CommLedger(ranks_per_node=2)
    led.record(0, 1, 100, "fillboundary")  # same node (0,1 -> node 0)
    led.record(0, 2, 70, "fillboundary")  # cross node (node 0 -> node 1)
    led.record(1, 1, 5, "fillboundary")  # self
    split = led.traffic()["fillboundary"]
    assert split["on_node_bytes"] == 100
    assert split["off_node_bytes"] == 70


def test_by_kind():
    led = CommLedger()
    led.record(0, 1, 100, "reduce")
    led.record(0, 1, 100, "reduce")
    led.record(0, 1, 7, "regrid")
    assert led.by_kind() == {"reduce": (2, 200), "regrid": (1, 7)}


def test_clear_by_kind():
    led = CommLedger()
    led.record(0, 1, 100, "reduce")
    led.record(0, 1, 50, "regrid")
    led.record(1, 2, 25, "reduce")
    led.clear(kind="reduce")
    assert led.by_kind() == {"regrid": (1, 50)}
    with pytest.raises(ValueError):
        led.clear(kind="warp")
    led.clear()
    assert len(led) == 0


def test_comm_validation():
    with pytest.raises(ValueError):
        Communicator(0)
    comm = Communicator(4, ranks_per_node=2)
    with pytest.raises(ValueError):
        comm.send_bytes(0, 4, 10, "reduce")


def test_serial_comm():
    c = Communicator(1, 1)
    assert c.nranks == 1
    assert c.reduce_min([5.0]) == 5.0
    assert len(c.ledger) == 0  # single rank: no messages in a tree of one


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=33))
def test_tree_reduce_correctness(values):
    comm = Communicator(len(values), ranks_per_node=6)
    assert comm.reduce_min(values) == min(values)
    assert comm.reduce_max(values) == max(values)


def test_tree_reduce_message_count():
    comm = Communicator(8, ranks_per_node=2)
    comm.reduce_min([1.0] * 8)
    # reduce: 4+2+1 = 7 messages; broadcast: 7 more
    assert len(comm.ledger) == 14


def test_reduce_wrong_length():
    comm = Communicator(4)
    with pytest.raises(ValueError):
        comm.reduce_min([1.0, 2.0])


def test_record_many_equals_one_record_per_message():
    """A plan's batch lands exactly as the same messages recorded singly:
    the table, its summaries, and the messages, in order."""
    comm = Communicator(4, ranks_per_node=2)
    batch = [comm.message(0, 1, 100, "fillboundary"),
             comm.message(2, 3, 50, "parallelcopy"),
             comm.message(1, 1, 8, "fillboundary")]
    singly, batched = CommLedger(2), CommLedger(2)
    with logged_messages() as log:
        for m in batch:
            singly.record(m.src, m.dst, m.nbytes, m.kind)
        batched.record_many(batch)
        batched.record_many(())
    assert batched.table == singly.table == Counter(batch)
    assert batched.by_kind() == singly.by_kind()
    assert batched.by_kind()["fillboundary"][0] == 2
    assert sum(t.get("on_node_bytes", 0) + t.get("off_node_bytes", 0)
               for t in batched.traffic().values()) == 150
    assert log.of(batched) == log.of(singly) == batch


def test_plan_messages_are_validated_when_built():
    comm = Communicator(2)
    with pytest.raises(ValueError):
        comm.message(0, 2, 8, "parallelcopy")      # rank out of range
    with pytest.raises(ValueError):
        comm.message(0, 1, 8, "bogus")
    with pytest.raises(ValueError):
        comm.message(0, 1, -8, "parallelcopy")
    assert comm.message(0, 1, 8, "regrid") == Message(0, 1, 8, "regrid")
    assert len(comm.ledger) == 0                   # built, not recorded


def test_ledger_traffic_and_matrix():
    """What the recorder samples into ``ledger.*`` and ``comms_matrix``."""
    led = CommLedger(ranks_per_node=2)
    led.record(0, 1, 100, "fillboundary")   # same node (ranks 0,1)
    led.record(0, 2, 50, "fillboundary")    # off node (node 0 -> node 1)
    led.record(3, 3, 10, "reduce")          # local: no on/off split
    traffic = led.traffic()
    assert traffic["fillboundary"] == {"bytes": 150, "messages": 2,
                                       "on_node_bytes": 100,
                                       "off_node_bytes": 50}
    assert traffic["reduce"] == {"bytes": 10, "messages": 1}
    m = led.comms_matrix()
    assert m[0][1] == 100 and m[0][2] == 50 and m[3][3] == 10
    assert len(m) == 4
    # explicit rank count pads the matrix
    assert len(led.comms_matrix(6)) == 6
    assert led.by_kind()["fillboundary"] == (2, 150)
