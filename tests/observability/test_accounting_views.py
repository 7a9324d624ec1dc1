"""View oracle for the two accounting tables.

``CommLedger.table`` and ``GpuDevice.table`` are multisets: identical
events collapse into a count and every summary is a view of the table.
For generated event streams, each view must equal the same quantity
computed brute-force from the ordered list of events recorded — through
``clear(kind)`` and a cleared launch table.  The per-event loops below
are the reference: they are
what the summaries were before the tables, one event at a time.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import DeviceBackend, LaunchSpec
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.kernels.counts import budget_for_kernel
from repro.kernels.device import TOTAL_FIELDS, GpuDevice, launch_totals
from repro.machine.gpu import V100Model
from repro.mpi.ledger import KINDS, CommLedger, Message
from repro.observability.metrics import MetricsRegistry
from repro.observability.report import (charged_kernel_times, final_totals,
                                        roofline_rows)
from repro.perfmodel.calibration import CAL
from repro.perfmodel.ledger_pricing import price_ledger
from tests.conftest import logged_launches

# -- messages ------------------------------------------------------------------

#: a few sizes that repeat (a plan's messages recur every step) beside
#: arbitrary ones that do not
SIZES = st.one_of(st.sampled_from([0, 8, 512, 4096]), st.integers(0, 10**7))


@st.composite
def message_streams(draw):
    """(nranks, ranks per node, ops): ops are batches of messages to record
    (singly or as a batch), or a ``clear``."""
    nranks = draw(st.integers(1, 12))
    rpn = draw(st.integers(1, 6))
    rank = st.integers(0, nranks - 1)
    message = st.builds(Message, rank, rank, SIZES, st.sampled_from(KINDS))
    op = st.one_of(
        st.tuples(st.sampled_from(["record", "record_many"]),
                  st.lists(message, max_size=8)),
        st.tuples(st.just("clear"), st.sampled_from((None,) + KINDS)))
    return nranks, rpn, draw(st.lists(op, max_size=12))


def replay(nranks, rpn, ops):
    """Run ``ops`` on a fresh ledger; returns it and the messages recorded
    that a ``clear`` has not dropped since, in order."""
    led = CommLedger(rpn)
    seen = []
    for what, arg in ops:
        if what == "clear":
            led.clear(arg)
            seen = [m for m in seen if arg is not None and m.kind != arg]
            continue
        if what == "record_many":
            led.record_many(arg)
        else:
            for m in arg:
                led.record(m.src, m.dst, m.nbytes, m.kind)
        seen += arg
    return led, seen


def price_per_message(msgs, nranks, nodes, cal=CAL):
    """``price_ledger`` one message at a time (the reference)."""
    net = cal.net
    rpn = max(1, nranks // nodes)
    seconds, offb, onb, counts = {}, {}, {}, {}
    for kind in KINDS:
        mine = [m for m in msgs if m.kind == kind]
        counts[kind] = len(mine)
        if not mine:
            seconds[kind], offb[kind], onb[kind] = 0.0, 0, 0
            continue
        recv_off, recv_on = np.zeros(nranks), np.zeros(nranks)
        nmsg = np.zeros(nranks, dtype=np.int64)
        for m in mine:
            if m.local:
                continue
            if m.src % nranks // rpn == m.dst % nranks // rpn:
                recv_on[m.dst % nranks] += m.nbytes
            else:
                recv_off[m.dst % nranks] += m.nbytes
                nmsg[m.dst % nranks] += 1
        offb[kind], onb[kind] = int(recv_off.sum()), int(recv_on.sum())
        t = net.p2p_time(float(recv_off.max()), float(recv_on.max()),
                         int(nmsg.max()), nodes)
        if kind in ("parallelcopy", "regrid"):
            t += cal.pc_meta_per_rank * nranks + net.barrier_time(nranks)
        if kind == "reduce":
            t = (max(1, len(mine) // max(1, 2 * int(np.log2(max(2, nranks)))))
                 * net.reduction_time(nranks))
        seconds[kind] = float(t)
    return seconds, offb, onb, counts


@settings(max_examples=150, deadline=None)
@given(message_streams())
def test_ledger_views_equal_the_event_list(stream):
    nranks, rpn, ops = stream
    led, msgs = replay(nranks, rpn, ops)

    def node(r):
        return r // rpn

    assert led.table == Counter(msgs)
    assert len(led) == len(msgs)
    assert sorted(led.table.elements(), key=repr) == sorted(msgs, key=repr)
    for kind in (None,) + KINDS:
        mine = [m for m in msgs if kind is None or m.kind == kind]
        remote = [m for m in mine if m.src != m.dst]
        assert Counter(dict(led.rows(kind))) == Counter(mine)
        assert led.count(kind) == len(mine)
        assert led.count(kind, remote_only=True) == len(remote)
        assert led.total_bytes(kind) == sum(m.nbytes for m in mine)
        assert led.total_bytes(kind, remote_only=True) == \
            sum(m.nbytes for m in remote)
    by_kind, traffic = led.by_kind(), led.traffic()
    assert set(by_kind) == set(traffic) == {m.kind for m in msgs}
    for kind, (count, volume) in by_kind.items():
        mine = [m for m in msgs if m.kind == kind]
        assert (count, volume) == (len(mine), sum(m.nbytes for m in mine))
        # the on/off-node keys exist exactly when such a message was seen
        split = {"messages": count, "bytes": volume}
        for m in mine:
            if m.src != m.dst:
                where = ("on_node_bytes" if node(m.src) == node(m.dst)
                         else "off_node_bytes")
                split[where] = split.get(where, 0) + m.nbytes
        assert traffic[kind] == split
    matrix = [[0] * nranks for _ in range(nranks)]
    for m in msgs:
        matrix[m.src][m.dst] += m.nbytes
    assert led.comms_matrix(nranks) == matrix
    used = 1 + max((max(m.src, m.dst) for m in msgs), default=0)
    assert led.comms_matrix() == [row[:used] for row in matrix[:used]]

    nodes = -(-nranks // rpn)
    priced = price_ledger(led, nranks, nodes)
    seconds, offb, onb, counts = price_per_message(msgs, nranks, nodes)
    assert priced.seconds == seconds
    assert priced.off_node_bytes == offb and priced.on_node_bytes == onb
    assert priced.messages == counts


# -- launches ------------------------------------------------------------------

KERNELS = [("WENOx", "flux"), ("WENOy", "flux"), ("Update", "update"),
           ("FB_pack", "fillpatch"), ("Interp_trilinear", "interp"),
           ("Tag_gradient", "tagging")]
NPOINTS = st.one_of(st.sampled_from([64, 1024, 4096]), st.integers(1, 10**5))


@st.composite
def launch_streams(draw):
    """(ndevices, ops): a launch or reduction on a rank, or clearing one
    device's table."""
    ndev = draw(st.integers(1, 4))
    rank = st.integers(0, ndev - 1)
    op = st.one_of(
        st.tuples(st.just("launch"), rank, st.sampled_from(KERNELS), NPOINTS),
        st.tuples(st.just("reduce"), rank, st.integers(1, 500)),
        st.tuples(st.just("clear"), rank))
    return ndev, draw(st.lists(op, max_size=30))


def issue(backend, op):
    if op[0] == "launch":
        _, rank, (name, cls), npoints = op
        backend.parallel_for(name, lambda: None, npoints,
                             LaunchSpec(kernel_class=cls, rank=rank))
    else:
        _, rank, n = op
        backend.reduce_data("ComputeDt", np.ones(n), "max",
                            LaunchSpec(kernel_class="reduction", rank=rank))


def price_per_launch(recs, by, model):
    """``launch_totals`` one launch at a time (the reference): each record
    priced by its name's budget."""
    expect = {}
    for r in recs:
        budget = budget_for_kernel(r.name)
        tot = expect.setdefault(getattr(r, by), dict.fromkeys(
            TOTAL_FIELDS + ("registers",), 0))
        dram = int(r.npoints * budget.dram_bytes_per_point)
        for field, value in zip(TOTAL_FIELDS, (
                1, r.npoints, int(r.npoints * budget.flops_per_point), dram,
                int(dram * budget.l2_amplification),
                int(dram * budget.l1_amplification),
                model.kernel_time(budget, r.npoints))):
            tot[field] += value
        tot["registers"] = max(tot["registers"], budget.registers_per_thread)
    return expect


@settings(max_examples=150, deadline=None)
@given(launch_streams())
def test_launch_views_equal_the_event_list(stream):
    ndev, ops = stream
    devices = [GpuDevice(name=f"d{i}") for i in range(ndev)]
    backend = DeviceBackend(devices)
    # each device's records since its last clear
    logs = [[] for _ in range(ndev)]
    with logged_launches() as log:
        for op in ops:
            mark = len(log.pairs)
            if op[0] == "clear":
                devices[op[1]].table.clear()
                logs[op[1]].clear()
            else:
                issue(backend, op)
            for dev, recs in zip(devices, logs):
                recs += [r for d, r in log.pairs[mark:] if d is dev]

    model = V100Model()
    for dev, recs in zip(devices, logs):
        assert dev.table == Counter(recs)
        assert dev.table.total() == len(recs)

    every = [r for recs in logs for r in recs]
    for by in ("name", "kernel_class"):
        got, expect = launch_totals(devices, by), price_per_launch(every, by,
                                                                   model)
        assert got.keys() == expect.keys()
        for group, tot in got.items():
            # seconds are summed in another order: equal to rounding
            assert tot.pop("seconds") == pytest.approx(
                expect[group].pop("seconds"), rel=1e-12)
        assert got == expect
    assert backend.class_totals() == {
        # the device.class.* gauges: no cache-level bytes or seconds
        cls: {f: tot[f] for f in ("launches", "points", "flops", "dram_bytes")}
        for cls, tot in launch_totals(devices, "kernel_class").items()}


def test_reset_clears_every_view():
    """Clearing a device's launch table clears every view of it: there
    are no class counters beside the table to leave standing."""
    dev = GpuDevice()
    backend = DeviceBackend([dev])
    backend.parallel_for("WENOx", lambda: None, 100)
    assert backend.class_totals()["flux"]["launches"] == 1
    dev.table.clear()
    assert launch_totals([dev]) == {} and backend.class_totals() == {}


def test_one_budget_per_name_on_a_recorded_dmr_step(tmp_path, launch_log):
    """A recorded v2.0 curvilinear DMR step on ``device``: for every
    launched name, the per-kernel and per-class gauges, the report's
    roofline intensities and its charged seconds all equal the launches
    of the step priced one record at a time by ``budget_for_kernel`` of
    the name — ComputeDt's reductions included."""
    sim = Crocco(DoubleMachReflection(ncells=(32, 8), curvilinear=True),
                 CroccoConfig(version="2.0", nranks=2, max_level=1,
                              max_grid_size=16, blocking_factor=8,
                              backend_target="device",
                              metrics_out=str(tmp_path / "metrics.jsonl")))
    sim.initialize()
    sim.step()
    sim.close()
    records = MetricsRegistry.read_jsonl(tmp_path / "metrics.jsonl")
    kernels = final_totals(records, "kernel", 1)
    classes = final_totals(records, "device.class", 1)
    model = V100Model()
    by_name = price_per_launch(launch_log.events, "name", model)
    by_class = price_per_launch(launch_log.events, "kernel_class", model)
    assert "ComputeDt" in by_name and set(kernels) >= set(by_name)
    for name, want in by_name.items():
        for field in ("launches", "points", "flops", "dram_bytes", "l2_bytes",
                      "l1_bytes"):
            assert kernels[name][field] == want[field], (name, field)
    for cls, want in by_class.items():
        for field in ("launches", "points", "flops", "dram_bytes"):
            assert classes[cls][field] == want[field], (cls, field)
    roofline = {name: rp for name, _, rp in roofline_rows(kernels)}
    charged = {row[0]: row[3] for row in charged_kernel_times(kernels)}
    assert roofline.keys() == charged.keys() == by_name.keys()
    for name, want in by_name.items():
        assert roofline[name].ai == pytest.approx({
            "DRAM": want["flops"] / want["dram_bytes"],
            "L2": want["flops"] / want["l2_bytes"],
            "L1": want["flops"] / want["l1_bytes"]}, rel=1e-12), name
        assert charged[name] == pytest.approx(want["seconds"], rel=1e-12), name


def test_totals_price_each_budget_once_and_equal_the_uncached_sum(tmp_path):
    """On a recorded run of ``examples/decks/dmr.inputs`` (device, two
    steps), ``launch_totals`` — each budget's sustained rate computed once
    — equals, bit for bit, every distinct record priced afresh (the rate's
    cache emptied first) by ``V100Model.kernel_time`` in the same order."""
    from repro.cli import build_case
    from repro.io.inputs import InputDeck

    config, run = InputDeck.from_file(str(
        Path(__file__).resolve().parents[2] / "examples" / "decks"
        / "dmr.inputs")).resolve({"backend_target": "device",
                                  "metrics_out": str(tmp_path / "m.jsonl")})
    sim = Crocco(build_case(run), config)
    sim.initialize()
    sim.run(2)
    sim.close()
    model = V100Model()
    for by in ("name", "kernel_class"):
        expect = {}
        for dev in sim.devices:
            for rec, n in dev.table.items():
                budget = budget_for_kernel(rec.name)
                tot = expect.setdefault(getattr(rec, by), Counter())
                V100Model.achieved_flops.cache_clear()
                tot["seconds"] += model.kernel_time(budget, rec.npoints) * n
                tot["flops"] += int(rec.npoints * budget.flops_per_point) * n
        V100Model.achieved_flops.cache_clear()
        got = launch_totals(sim.devices, by)
        assert V100Model.achieved_flops.cache_info().misses == len({
            budget_for_kernel(rec.name)
            for dev in sim.devices for rec in dev.table})
        assert len(got) > 3 and got.keys() == expect.keys()
        for group, tot in got.items():
            assert tot["seconds"] == expect[group]["seconds"], (by, group)
            assert tot["flops"] == expect[group]["flops"], (by, group)
