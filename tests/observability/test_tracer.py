"""Tests for the Tracer: spans, charged clocks, Chrome-trace export."""

import json

import pytest

from repro.observability.tracer import (
    DRIVER_STREAM,
    GPU_STREAM,
    Tracer,
    load_chrome_trace,
    validate_chrome_trace,
)
from tests.conftest import trace_events


def test_charge_advances_cursor_and_rejects_negative():
    tr = Tracer()
    tr.charge("A", 2.0)
    tr.charge("B", 3.0)
    a, b = trace_events(tr)
    assert a["ts"] == pytest.approx(0.0)
    assert b["ts"] == pytest.approx(2.0e6)
    assert b["dur"] == pytest.approx(3.0e6)
    with pytest.raises(ValueError):
        tr.charge("C", -1.0)


def test_charged_span_covers_children():
    tr = Tracer()
    tr.begin_charged("FillPatch")
    tr.charge("FillBoundary", 1.0)
    tr.charge("ParallelCopy", 2.0)
    tr.end_charged()
    by_name = {e["name"]: e for e in trace_events(tr)}
    parent = by_name["FillPatch"]
    assert parent["dur"] == pytest.approx(3.0e6)
    for child in ("FillBoundary", "ParallelCopy"):
        ev = by_name[child]
        assert ev["ts"] >= parent["ts"]
        assert ev["ts"] + ev["dur"] <= parent["ts"] + parent["dur"] + 1e-6


def test_end_charged_without_open_raises():
    tr = Tracer()
    with pytest.raises(RuntimeError):
        tr.end_charged()


def test_tracks_are_independent():
    tr = Tracer()
    tr.charge("k", 1.0, rank=0, stream=GPU_STREAM)
    tr.charge("r", 5.0, rank=1, stream=DRIVER_STREAM)
    # the next charge on each track starts at that track's own cursor
    tr.charge("k2", 1.0, rank=0, stream=GPU_STREAM)
    tr.charge("r2", 1.0, rank=1, stream=DRIVER_STREAM)
    tr.charge("d", 1.0, rank=0, stream=DRIVER_STREAM)
    ts = {e["name"]: e["ts"] for e in trace_events(tr)}
    assert ts["k2"] == pytest.approx(1.0e6)
    assert ts["r2"] == pytest.approx(5.0e6)
    assert ts["d"] == 0.0


def test_chrome_doc_schema_and_metadata():
    tr = Tracer()
    tr.set_process_name(0, "rank 0")
    tr.set_thread_name(0, GPU_STREAM, "gpu stream")
    tr.charge("A", 1.0)
    tr.instant("regrid")
    tr.counter("cells", {"lev0": 100.0})
    doc = tr.to_chrome(other_data={"mode": "charged"})
    assert validate_chrome_trace(doc) == []
    assert doc["otherData"] == {"mode": "charged"}
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert {"M", "X", "i", "C"} <= phases
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    names = {(e["name"], e["pid"], e["tid"]) for e in meta}
    assert ("process_name", 0, 0) in names
    assert ("thread_name", 0, GPU_STREAM) in names


def test_validate_catches_bad_documents():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({"events": []}) != []
    bad_x = {"traceEvents": [
        {"name": "a", "ph": "X", "ts": 0.0, "pid": 0, "tid": 0},
    ]}
    assert any("dur" in p for p in validate_chrome_trace(bad_x))
    neg = {"traceEvents": [
        {"name": "a", "ph": "X", "ts": -1.0, "dur": -2.0, "pid": 0, "tid": 0},
    ]}
    problems = validate_chrome_trace(neg)
    assert any("negative duration" in p for p in problems)
    assert any("negative timestamp" in p for p in problems)
    missing = {"traceEvents": [{"ph": "i", "ts": 0.0}]}
    assert any("missing field" in p for p in validate_chrome_trace(missing))


def test_write_and_load_round_trip(tmp_path):
    tr = Tracer()
    tr.begin_charged("outer")
    tr.charge("inner", 0.5, args={"calls": 3})
    tr.end_charged()
    path = tr.write(tmp_path / "deep" / "trace.json",
                    other_data={"schema": "repro-trace-1"})
    events, other = load_chrome_trace(path)
    assert other["schema"] == "repro-trace-1"
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in spans} == {"outer", "inner"}
    inner = next(e for e in spans if e["name"] == "inner")
    assert inner["args"]["calls"] == 3


def test_load_rejects_invalid_trace(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
    with pytest.raises(ValueError):
        load_chrome_trace(p)


def test_concurrent_emitters_produce_valid_trace():
    """Span nesting stays coherent when many threads emit concurrently.

    Each emitter owns its own (rank, stream) track, the contract the
    Chrome trace format needs, and the charged clock is per track.  The
    resulting document must validate, keep every event on its emitter's
    track, and carry no negative durations — even under heavy
    interleaving.
    """
    import threading

    tr = Tracer()
    n_threads, n_spans = 6, 40
    barrier = threading.Barrier(n_threads)
    errors = []

    def emit(stream: int) -> None:
        try:
            barrier.wait()
            for i in range(n_spans):
                tr.begin_charged(f"outer{i}", rank=0, stream=stream,
                                 args={"stream": stream})
                tr.charge(f"inner{i}", 1e-6, rank=0, stream=stream)
                tr.end_charged(rank=0, stream=stream)
                tr.complete(f"direct{i}", tr.now_us(), 1.0,
                            rank=0, stream=stream, cat="lifecycle")
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=emit, args=(s,))
               for s in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []

    doc = tr.to_chrome()
    assert validate_chrome_trace(doc) == []
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    # every emitter's spans landed, on that emitter's own track
    assert len(spans) == n_threads * n_spans * 3
    for ev in spans:
        assert ev["pid"] == 0
        assert 0 <= ev["tid"] < n_threads
        assert ev["dur"] >= 0.0
        if "args" in ev and "stream" in ev["args"]:
            assert ev["args"]["stream"] == ev["tid"]
    # per-track nesting survived: each innerN sits inside its outerN
    by_track = {}
    for ev in spans:
        by_track.setdefault(ev["tid"], []).append(ev)
    for evs in by_track.values():
        outers = {e["name"][5:]: e for e in evs
                  if e["name"].startswith("outer")}
        for e in evs:
            if e["name"].startswith("inner"):
                outer = outers[e["name"][5:]]
                assert outer["ts"] <= e["ts"] + 1e-6
                assert (e["ts"] + e["dur"]
                        <= outer["ts"] + outer["dur"] + 1e-6)
