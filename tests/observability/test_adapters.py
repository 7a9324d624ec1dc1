"""Tests for the span adapters and the producers' listener contracts."""

import numpy as np
import pytest

from repro.kernels.counts import KernelBudget
from repro.kernels.device import GpuDevice, launch_totals
from repro.mpi.ledger import CommLedger
from repro.observability.adapters import (
    KernelSpanAdapter,
    ProfilerTraceAdapter,
)
from repro.observability.tracer import GPU_STREAM, Tracer
from repro.profiling.tinyprofiler import TinyProfiler
from tests.conftest import profiler_children, trace_events


def test_profiler_regions_become_nested_spans():
    tracer = Tracer()
    prof = TinyProfiler()
    prof.add_listener(ProfilerTraceAdapter(tracer, rank=0))
    with prof.region("FillPatch"):
        with prof.region("FillBoundary"):
            pass
    spans = {e["name"]: e for e in trace_events(tracer)}
    assert set(spans) == {"FillPatch", "FillBoundary"}
    inner, outer = spans["FillBoundary"], spans["FillPatch"]
    assert inner["ts"] >= outer["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6
    assert inner["args"]["path"] == "FillPatch/FillBoundary"
    # profiler accumulation is unchanged by the listener
    assert prof.calls("FillPatch") == 1
    assert "FillBoundary" in profiler_children(prof, "FillPatch")


def test_profiler_charges_become_charged_spans():
    tracer = Tracer()
    prof = TinyProfiler()
    prof.add_listener(ProfilerTraceAdapter(tracer, rank=0))
    with prof.charged_region("FillPatch"):
        prof.charge("ParallelCopy", 2.0)
        prof.charge("FillBoundary", 1.0)
    spans = {e["name"]: e for e in trace_events(tracer)}
    assert spans["FillPatch"]["dur"] == pytest.approx(3.0e6)
    assert spans["ParallelCopy"]["dur"] == pytest.approx(2.0e6)
    # the tracer's charged layout matches the profiler's accounting
    assert prof.total("FillPatch") == pytest.approx(3.0)


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


def test_ledger_paused_suppresses_listener(message_log):
    led = CommLedger()
    led.add_listener(message_log)
    led.enabled = False
    led.record(0, 1, 999, "reduce")
    assert message_log.events == []
    assert len(led) == 0


def test_device_adapter_counts_and_spans():
    tracer = Tracer()
    dev = GpuDevice()
    dev.add_listener(KernelSpanAdapter(tracer, rank=0))
    budget = KernelBudget("WENOx", 10.0, 8.0, 1.6, 4.0, 255)
    dev.launch("WENOx", lambda: None, npoints=1000, budget=budget)
    dev.launch("WENOx", lambda: None, npoints=500, budget=budget)
    # the counts the recorder samples into ``kernel.WENOx.*``
    assert launch_totals([dev])["WENOx"] == {
        "launches": 2, "points": 1500, "flops": 15000, "dram_bytes": 12000,
        "l2_bytes": 19200, "l1_bytes": 48000}
    spans = [e for e in trace_events(tracer) if e["ph"] == "X"]
    assert len(spans) == 2
    assert all(e["tid"] == GPU_STREAM and e["cat"] == "kernel" for e in spans)
    assert [e["args"]["points"] for e in spans] == [1000, 500]


def test_device_reduce_notifies_listener(launch_log):
    dev = GpuDevice()
    dev.add_listener(launch_log)
    out = dev.reduce("ComputeDt", np.array([3.0, 1.0, 2.0]), op="min")
    assert out == 1.0
    assert [rec.name for rec in launch_log.events] == ["ComputeDt"]
    assert launch_totals([dev])["ComputeDt"]["launches"] == 1
