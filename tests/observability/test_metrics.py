"""Tests for the MetricsRegistry instruments and JSONL serialization."""

import pytest

from repro.observability.metrics import MetricsRegistry


def test_gauge_unset_omitted_from_snapshot():
    reg = MetricsRegistry()
    reg.gauge("dt")
    assert "dt" not in reg.snapshot()
    reg.gauge("dt").set(0.5)
    assert reg.snapshot()["dt"] == 0.5
    reg.gauge("dt").set(0.25)  # last write wins
    assert reg.snapshot()["dt"] == 0.25
    # get-or-create returns the same instrument
    assert reg.gauge("dt") is reg.gauge("dt")


def test_histogram_flattens_to_stats():
    reg = MetricsRegistry()
    h = reg.histogram("dt_hist")
    for v in (1.0, 3.0, 2.0):
        h.observe(v)
    snap = reg.snapshot()
    assert snap["dt_hist.count"] == 3
    assert snap["dt_hist.sum"] == pytest.approx(6.0)
    assert snap["dt_hist.min"] == 1.0
    assert snap["dt_hist.max"] == 3.0
    assert snap["dt_hist.mean"] == pytest.approx(2.0)


def test_kind_mismatch_rejected():
    reg = MetricsRegistry()
    reg.gauge("x")
    with pytest.raises(TypeError):
        reg.histogram("x")
    reg.histogram("y")
    with pytest.raises(TypeError):
        reg.gauge("y")


def test_sample_records_and_extra():
    reg = MetricsRegistry()
    reg.gauge("n").set(2)
    rec = reg.sample(step=1, time=0.5, extra={"custom": 7})
    assert rec["step"] == 1 and rec["time"] == 0.5
    assert rec["metrics"]["n"] == 2
    assert rec["metrics"]["custom"] == 7.0
    assert reg.records == [rec]


def test_jsonl_round_trip(tmp_path):
    reg = MetricsRegistry()
    for step in range(3):
        reg.gauge("ledger.reduce.bytes").set(100 * (step + 1))
        reg.gauge("active_cells.lev0").set(1000 + step)
        reg.sample(step, step * 0.1)
    path = reg.write_jsonl(tmp_path / "sub" / "metrics.jsonl")
    records = MetricsRegistry.read_jsonl(path)
    assert len(records) == 3
    # each sample carries the value its gauge held at that step
    assert [r["metrics"]["ledger.reduce.bytes"] for r in records] == \
        [100, 200, 300]
    assert records[-1]["metrics"]["active_cells.lev0"] == 1002


def test_read_jsonl_validates_schema(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"step": 0, "time": 0.0}\n')
    with pytest.raises(ValueError):
        MetricsRegistry.read_jsonl(p)
