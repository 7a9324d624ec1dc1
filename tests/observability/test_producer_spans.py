"""Producers write their spans into the run's tracer directly: profiler
regions, the perf model's charged regions, and kernel launches."""

import numpy as np
import pytest

from repro.backend import DeviceBackend
from repro.kernels.counts import WENO_BUDGET
from repro.kernels.device import GpuDevice, LaunchRecord, launch_totals
from repro.observability.tracer import GPU_STREAM, Tracer
from repro.perfmodel.execution import IterationBreakdown
from repro.perfmodel.trace_export import charge_iteration
from repro.profiling.tinyprofiler import TinyProfiler
from tests.conftest import profiler_children, trace_events


def test_profiler_regions_become_nested_spans():
    tracer = Tracer()
    prof = TinyProfiler()
    prof.tracer = tracer
    with prof.region("FillPatch"):
        with prof.region("FillBoundary"):
            pass
    inner, outer = trace_events(tracer)  # closed innermost first
    assert (inner["name"], outer["name"]) == ("FillBoundary", "FillPatch")
    assert inner["ts"] >= outer["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6
    assert inner["args"]["path"] == "FillPatch/FillBoundary"
    assert (outer["cat"], outer["pid"], outer["tid"]) == ("region", 0, 0)
    # the spans are the profiler's own measurement
    assert outer["dur"] == prof.total("FillPatch") * 1e6
    assert prof.calls("FillPatch") == 1
    assert "FillBoundary" in profiler_children(prof, "FillPatch")


def test_charge_iteration_writes_the_region_nest():
    tracer = Tracer()
    bd = IterationBreakdown(advance=4.0, fillboundary=1.0, parallelcopy=2.0,
                            computedt=0.5, averagedown=0.25, regrid=0.125)
    charge_iteration(tracer, bd)
    spans = {e["name"]: e for e in trace_events(tracer)}
    assert spans["FillPatch"]["dur"] == pytest.approx(3.0e6)
    assert spans["ParallelCopy_total"]["dur"] == pytest.approx(2.0e6)
    assert spans["ParallelCopy_total"]["args"] == {
        "path": "FillPatch/ParallelCopy/ParallelCopy_total", "calls": 1}
    assert spans["FillBoundary"]["args"] == {"path": "FillPatch/FillBoundary"}
    assert {e["cat"] for e in spans.values()} == {"charged"}
    # laid end to end on the simulated clock: the iteration's total
    last = spans["Regrid"]
    assert last["ts"] + last["dur"] == pytest.approx(bd.total * 1e6)


def test_device_counts_and_spans():
    tracer = Tracer()
    dev = GpuDevice()
    dev.tracer, dev.trace_track = tracer, (3, GPU_STREAM)
    dev.run(LaunchRecord("WENOx", 1000), lambda: None)
    dev.run(LaunchRecord("WENOx", 500), lambda: None)
    # the counts the recorder samples into ``kernel.WENOx.*``
    tot = launch_totals([dev])["WENOx"]
    assert {f: tot[f] for f in ("launches", "points", "flops", "dram_bytes",
                                "l2_bytes", "l1_bytes")} == {
        "launches": 2, "points": 1500, "flops": 900000, "dram_bytes": 600000,
        "l2_bytes": 1080000, "l1_bytes": 2700000}
    assert tot["registers"] == WENO_BUDGET.registers_per_thread
    spans = trace_events(tracer)
    assert len(spans) == 2
    assert all((e["pid"], e["tid"], e["cat"]) == (3, GPU_STREAM, "kernel")
               for e in spans)
    assert [e["args"] for e in spans] == [{"points": 1000, "class": "flux"},
                                          {"points": 500, "class": "flux"}]


def test_device_reduce_is_a_kernel_span():
    tracer = Tracer()
    dev = GpuDevice()
    dev.tracer = tracer
    out = DeviceBackend([dev]).reduce_data(
        "ComputeDt", np.array([3.0, 1.0, 2.0]), op="min")
    assert out == 1.0
    assert [(e["name"], e["args"]) for e in trace_events(tracer)] == [
        ("ComputeDt", {"points": 3, "class": "reduction"})]
    assert launch_totals([dev])["ComputeDt"]["launches"] == 1
    assert list(dev.table) == [
        LaunchRecord("ComputeDt", 3, "reduction")]

