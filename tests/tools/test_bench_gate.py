"""Tests for tools/bench_gate.py — the perf-regression gate.

The acceptance pair: a synthetic 20% regression in a named series must
fail the default 15% gate, while the repo's committed BENCH_results.json
trajectory must pass it.
"""

import json
from pathlib import Path

from tests.tools.test_tools import ROOT, load_tool


def write_rows(path: Path, rows) -> Path:
    path.write_text(json.dumps(rows))
    return path


def series(bench, values, units="s", config="n=1"):
    return [{"bench": bench, "config": config, "value": v, "units": units}
            for v in values]


class TestGateVerdicts:
    def test_synthetic_regression_fails(self, tmp_path, capsys):
        gate = load_tool("bench_gate")
        # stable ~1.0s history, newest run 20% slower: must trip the 15% gate
        rows = series("step_wall", [1.00, 1.01, 0.99, 1.20])
        path = write_rows(tmp_path / "r.json", rows)
        assert gate.main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "step_wall" in out
        assert "FAIL" in out

    def test_committed_trajectory_passes(self, capsys):
        gate = load_tool("bench_gate")
        assert gate.main([str(ROOT / "BENCH_results.json")]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_within_threshold_passes(self, tmp_path):
        gate = load_tool("bench_gate")
        path = write_rows(tmp_path / "r.json",
                          series("step_wall", [1.00, 1.01, 0.99, 1.10]))
        assert gate.main([str(path)]) == 0

    def test_improvement_passes(self, tmp_path):
        gate = load_tool("bench_gate")
        path = write_rows(tmp_path / "r.json",
                          series("step_wall", [1.0, 1.0, 0.5]))
        assert gate.main([str(path)]) == 0

    def test_higher_is_better_units_fail_on_drop(self, tmp_path):
        gate = load_tool("bench_gate")
        # a speedup series (units "x"): a 20% drop is the regression
        path = write_rows(tmp_path / "r.json",
                          series("weno_speedup", [2.0, 2.0, 1.6], units="x"))
        assert gate.main([str(path)]) == 1

    def test_single_row_series_skipped(self, tmp_path, capsys):
        gate = load_tool("bench_gate")
        path = write_rows(tmp_path / "r.json", series("fresh_bench", [1.0]))
        assert gate.main([str(path)]) == 0
        assert "1 skipped" in capsys.readouterr().out

    def test_median_baseline_shrugs_off_outlier(self, tmp_path):
        gate = load_tool("bench_gate")
        # one historic outlier (5.0) must not poison the baseline
        path = write_rows(tmp_path / "r.json",
                          series("step_wall", [1.0, 5.0, 1.0, 1.0, 1.05]))
        assert gate.main([str(path)]) == 0

    def test_threshold_flag(self, tmp_path):
        gate = load_tool("bench_gate")
        path = write_rows(tmp_path / "r.json",
                          series("step_wall", [1.0, 1.0, 1.10]))
        assert gate.main([str(path), "--threshold", "0.05"]) == 1
        assert gate.main([str(path), "--threshold", "0.25"]) == 0

    def test_series_filter(self, tmp_path):
        gate = load_tool("bench_gate")
        rows = (series("bad_bench", [1.0, 1.0, 2.0])
                + series("good_bench", [1.0, 1.0, 1.0]))
        path = write_rows(tmp_path / "r.json", rows)
        assert gate.main([str(path), "--series", "good_bench"]) == 0
        assert gate.main([str(path), "--series", "bad_bench"]) == 1


class TestTwoFileMode:
    def test_baseline_file_comparison(self, tmp_path):
        gate = load_tool("bench_gate")
        base = write_rows(tmp_path / "base.json",
                          series("step_wall", [1.0, 1.0, 1.0]))
        fresh_bad = write_rows(tmp_path / "bad.json",
                               series("step_wall", [1.3]))
        fresh_ok = write_rows(tmp_path / "ok.json",
                              series("step_wall", [1.05]))
        assert gate.main([str(fresh_bad), "--baseline", str(base)]) == 1
        assert gate.main([str(fresh_ok), "--baseline", str(base)]) == 0

    def test_series_absent_from_baseline_skipped(self, tmp_path, capsys):
        gate = load_tool("bench_gate")
        base = write_rows(tmp_path / "base.json",
                          series("old_bench", [1.0, 1.0]))
        fresh = write_rows(tmp_path / "new.json", series("new_bench", [9.9]))
        assert gate.main([str(fresh), "--baseline", str(base)]) == 0
        assert "1 skipped" in capsys.readouterr().out


class TestRobustness:
    def test_missing_file_exits_2(self, tmp_path):
        import pytest

        gate = load_tool("bench_gate")
        with pytest.raises(SystemExit) as exc:
            gate.main([str(tmp_path / "nope.json")])
        assert "no such results file" in str(exc.value)

    def test_zero_baseline_skipped(self, tmp_path):
        gate = load_tool("bench_gate")
        path = write_rows(tmp_path / "r.json",
                          series("odd", [0.0, 0.0, 1.0]))
        assert gate.main([str(path)]) == 0

    def test_malformed_rows_ignored(self, tmp_path):
        gate = load_tool("bench_gate")
        rows = series("step_wall", [1.0, 1.0, 1.0]) + [
            {"not": "a row"}, "just a string"]
        assert gate.main([str(write_rows(tmp_path / "r.json", rows))]) == 0
