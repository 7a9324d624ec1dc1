"""Tests for the MetricsRegistry values and JSONL serialization."""

import pytest

from repro.observability.metrics import MetricsRegistry


def test_set_value_last_write_wins():
    reg = MetricsRegistry()
    assert reg.snapshot() == {}
    reg.set("dt", 0.5)
    reg.set("cfl", 1)
    reg.set("dt", 0.25)  # last write wins
    assert reg.snapshot() == {"cfl": 1.0, "dt": 0.25}
    assert list(reg.snapshot()) == ["cfl", "dt"]  # sorted by name


def test_sample_records_every_value():
    reg = MetricsRegistry()
    reg.set("n", 2)
    rec = reg.sample(step=1, time=0.5)
    assert rec == {"step": 1, "time": 0.5, "metrics": {"n": 2.0}}
    assert reg.records == [rec]


def test_jsonl_round_trip(tmp_path):
    reg = MetricsRegistry()
    for step in range(3):
        reg.set("ledger.reduce.bytes", 100 * (step + 1))
        reg.set("active_cells.lev0", 1000 + step)
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
