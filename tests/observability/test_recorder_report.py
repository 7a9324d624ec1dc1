"""End-to-end: record a functional run and a simulated export, report both.

The acceptance path of the unified observability layer: a DMR run with
``trace_out`` / ``metrics_out`` set produces a valid Chrome trace whose
FillPatch spans nest ParallelCopy / FillBoundary children, a metrics JSONL
with per-step active cells per level and ledger bytes by kind, and a run
report consistent with the profiler's own FillPatch children — while the
simulated-Summit weak-scaling driver emits the same schema with charged
time.
"""

import pytest

from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.observability.metrics import MetricsRegistry
from repro.observability.report import (
    format_report,
    load_run,
    split_of,
    summarize_spans,
)
from repro.observability.tracer import load_chrome_trace, validate_chrome_trace
from tests.conftest import profiler_children


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    """A short recorded DMR run with two AMR levels."""
    run_dir = tmp_path_factory.mktemp("run")
    case = DoubleMachReflection(ncells=(32, 8))
    sim = Crocco(case, CroccoConfig(
        version="1.2", nranks=2, ranks_per_node=1, max_level=1,
        max_grid_size=16, blocking_factor=8, regrid_int=2,
        trace_out=str(run_dir / "trace.json"),
        metrics_out=str(run_dir / "metrics.jsonl"),
    ))
    sim.initialize()
    for _ in range(3):
        sim.step()
    fp_breakdown = profiler_children(sim.profiler, "FillPatch")
    sim.close()
    return run_dir, sim, fp_breakdown


def test_trace_is_valid_with_nested_fillpatch(recorded_run):
    run_dir, _sim, _bd = recorded_run
    import json
    doc = json.loads((run_dir / "trace.json").read_text())
    assert validate_chrome_trace(doc) == []
    events, other = load_chrome_trace(run_dir / "trace.json")
    assert other["mode"] == "wall"
    assert other["schema"] == "repro-trace-1"
    assert other["config"]["case"] == "dmr"
    # FillPatch spans nest ParallelCopy and FillBoundary children
    split = split_of(events, "FillPatch")
    assert "ParallelCopy" in split
    assert "FillBoundary" in split
    assert all(v > 0 for v in split.values())


def test_metrics_carry_cells_and_ledger_bytes(recorded_run):
    run_dir, sim, _bd = recorded_run
    records = MetricsRegistry.read_jsonl(run_dir / "metrics.jsonl")
    assert len(records) == 3
    for rec in records:
        m = rec["metrics"]
        assert m["active_cells.lev0"] > 0
        assert m["active_cells.lev1"] > 0
        assert m["active_cells.total"] == \
            m["active_cells.lev0"] + m["active_cells.lev1"]
        assert m["dt"] > 0
    final = records[-1]["metrics"]
    # ledger traffic by kind, cumulative, matching the ledger itself
    assert final["ledger.fillboundary.bytes"] == \
        sim.comm.ledger.total_bytes("fillboundary")
    assert final["ledger.parallelcopy.bytes"] > 0
    assert final["tagged_cells"] > 0


def test_report_matches_profiler_breakdown(recorded_run):
    run_dir, _sim, fp_breakdown = recorded_run
    events, other, records = load_run(str(run_dir))
    split = split_of(events, "FillPatch")
    # the trace-reconstructed FillPatch split is TinyProfiler's, to
    # round-off: both are the same durations (a task's regions are its
    # scheduler record; the trace stores microseconds)
    assert set(split) == set(fp_breakdown)
    for child in fp_breakdown:
        assert split[child] == pytest.approx(fp_breakdown[child], rel=1e-12,
                                             abs=0.0)
    regions = summarize_spans(
        [e for e in events if e.get("cat") in ("region", "charged")]
    )
    assert regions["FillPatch"].exclusive >= -1e-9
    text = format_report(events, other, records)
    assert "hot regions" in text
    assert "FillPatch split" in text
    assert "comms matrix" in text
    assert "Advance" in text


def test_plan_builds_are_reported_per_step(recorded_run):
    """``amr.plan_builds`` counts the communication plans built in each
    step; the report adds them up and singles out builds in a step that
    did not regrid (there must be none: CI greps for that)."""
    import copy
    run_dir, _sim, _bd = recorded_run
    events, other, records = load_run(str(run_dir))
    assert [r["metrics"]["regrids"] for r in records] == [1, 1, 2]
    builds = [r["metrics"]["amr.plan_builds"] for r in records]
    assert builds[0] > 0 and builds[1] == 0
    text = format_report(events, other, records)
    assert (f"plan builds = {int(sum(builds))} "
            "(0 in steps without a regrid)") in text
    stray = copy.deepcopy(records)
    stray[1]["metrics"]["amr.plan_builds"] = 3
    assert "(3 in steps without a regrid)" in format_report(
        events, other, stray)


def test_graph_builds_are_reported_per_step(recorded_run):
    """``runtime.graph_builds`` counts the stage graphs built in each step
    — one per level-storage layout, replayed by every other stage — and
    the report's line next to the plan builds singles out strays (CI greps
    for the zero)."""
    import copy
    run_dir, sim, _bd = recorded_run
    events, other, records = load_run(str(run_dir))
    builds = [r["metrics"]["runtime.graph_builds"] for r in records]
    assert builds[0] == 1 and builds[1] == 0
    assert sum(builds) == sim.engine.graphs_built
    text = format_report(events, other, records)
    assert (f"graph builds = {int(sum(builds))} "
            "(0 in steps without a regrid)") in text
    stray = copy.deepcopy(records)
    stray[1]["metrics"]["runtime.graph_builds"] = 1
    assert "graph builds = " + str(int(sum(builds)) + 1) + (
        " (1 in steps without a regrid)") in format_report(events, other, stray)


def test_compute_batches_are_reported(recorded_run):
    """``kernel.batches`` / ``kernel.batch_boxes`` say how many kernel
    calls a stage makes for how many boxes; the report's runtime section
    prints them with the grown/valid cell ratio (CI greps for the line and
    fails when the AMR deck's batches are as many as its boxes)."""
    run_dir, sim, _bd = recorded_run
    events, other, records = load_run(str(run_dir))
    m = records[-1]["metrics"]
    batches = [b for bs in sim.batches.values() for b in bs]
    assert m["kernel.batches"] == len(batches) < m["kernel.batch_boxes"]
    assert m["kernel.batch_boxes"] == sum(len(mf) for mf in sim.state.values())
    ratio = m["kernel.batch_grown_cells"] / m["active_cells.total"]
    assert ratio > 1
    text = format_report(events, other, records)
    assert (f"compute batches = {len(batches)} for "
            f"{int(m['kernel.batch_boxes'])} boxes "
            f"(grown/valid = {ratio:.2f})") in text
    # the gauges of the prefix itself are not per-kernel rows
    assert "batches" not in text.partition("top kernels by charged time")[2]


def test_metrics_only_run_traces_no_launch(tmp_path):
    """Metrics are read from the producers' tables at sample time; only a
    trace needs the launch sequence, so only ``trace_out`` binds the
    tracer to the devices (and nothing is written per message)."""
    def traced(**outputs):
        sim = Crocco(DoubleMachReflection(ncells=(32, 8)), CroccoConfig(
            version="2.1", nranks=2, max_level=0, max_grid_size=16,
            backend_target="device", **outputs))
        sim.close()
        assert sim.profiler.tracer is sim.recorder.tracer
        return [d.tracer is sim.recorder.tracer for d in sim.devices]

    assert traced(metrics_out=str(tmp_path / "m.jsonl")) == [False, False]
    assert traced(trace_out=str(tmp_path / "t.json")) == [True, True]


def test_report_carries_per_kernel_rows_of_the_flux_kernels(tmp_path):
    """Every launch of a run is in the devices' tables, so the per-kernel
    metrics, the per-class totals and the report's per-kernel and
    roofline rows show the WENO / Update launches (CI greps the row)."""
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(
        version="2.1", nranks=6, ranks_per_node=6, max_level=1,
        max_grid_size=32, blocking_factor=8, regrid_int=2,
        backend_target="device",
        trace_out=str(tmp_path / "trace.json"),
        metrics_out=str(tmp_path / "metrics.jsonl")))
    sim.initialize()
    sim.run(3)
    sim.close()
    events, other, records = load_run(str(tmp_path))
    final = records[-1]["metrics"]
    text = format_report(events, other, records)
    for kernel in ("WENOx", "WENOy", "Update"):
        for field in ("launches", "points", "flops"):
            assert final[f"kernel.{kernel}.{field}"] > 0, (kernel, field)
    assert final["device.class.flux.launches"] == (
        final["kernel.WENOx.launches"] + final["kernel.WENOy.launches"])
    charged = text.partition("top kernels by charged time")[2]
    roofline = text.partition("-- roofline points")[2]
    for kernel in ("WENOx", "WENOy"):
        launches = int(final[f"kernel.{kernel}.launches"])
        assert f"{kernel:<16s}" in charged, kernel
        assert f"({launches} launches" in charged, kernel
        assert f"\n{kernel:<12s}" in roofline, kernel


def test_report_cli_exit_codes(recorded_run, tmp_path, capsys):
    from repro.observability.report import main

    run_dir, _sim, _bd = recorded_run
    assert main([str(run_dir)]) == 0
    capsys.readouterr()
    assert main([str(tmp_path / "nowhere")]) == 2


class TestReportDegradesGracefully:
    """Malformed run artifacts get a clear message, never a traceback."""

    def test_empty_metrics_file(self, tmp_path, capsys):
        from repro.observability.report import main

        (tmp_path / "metrics.jsonl").write_text("")
        assert main([str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_truncated_final_line_still_reports(self, recorded_run,
                                                tmp_path, capsys):
        from repro.observability.report import main

        run_dir, _sim, _bd = recorded_run
        intact = (run_dir / "metrics.jsonl").read_text()
        # a run killed mid-write leaves a half-serialized final record
        (tmp_path / "metrics.jsonl").write_text(
            intact + intact.splitlines()[0][: len(intact) // 8])
        assert main(["--metrics", str(tmp_path / "metrics.jsonl")]) == 0
        out, err = capsys.readouterr()
        assert "skipping malformed record" in err
        # every intact record still rendered
        assert f"{len(intact.splitlines())} timesteps" in out

    def test_record_missing_metrics_section_skipped(self, tmp_path, capsys):
        from repro.observability.report import main

        path = tmp_path / "metrics.jsonl"
        path.write_text(
            '{"step": 0, "time": 0.0, "metrics": {"dt": 1e-3}}\n'
            '{"step": 1, "time": 1e-3}\n')
        assert main(["--metrics", str(path)]) == 0
        out, err = capsys.readouterr()
        assert "skipping record missing 'metrics'" in err
        assert "1 timesteps" in out

    def test_fully_malformed_metrics(self, tmp_path, capsys):
        from repro.observability.report import main

        path = tmp_path / "metrics.jsonl"
        path.write_text("not json at all\n{{{\n")
        assert main(["--metrics", str(path)]) == 2
        err = capsys.readouterr().err
        assert "no usable events or metrics" in err
        assert "Traceback" not in err

    def test_malformed_trace_json(self, tmp_path, capsys):
        from repro.observability.report import main

        (tmp_path / "trace.json").write_text('{"traceEvents": [{"ph"')
        assert main([str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_strict_reader_still_raises(self, tmp_path):
        bad = tmp_path / "m.jsonl"
        bad.write_text('{"step": 0}\n')
        with pytest.raises(ValueError):
            MetricsRegistry.read_jsonl(bad)
        bad.write_text("nope\n")
        with pytest.raises(ValueError):
            MetricsRegistry.read_jsonl(bad)


def test_simulated_export_same_schema(tmp_path):
    from repro.perfmodel.trace_export import export_weak_scaling

    table = tuple((n, 6 * n, 5.0e6 * n) for n in (4, 16))
    paths = export_weak_scaling(tmp_path / "sim", version="2.1", table=table)
    events, other = load_chrome_trace(paths["trace"])
    assert other["mode"] == "charged"
    assert other["schema"] == "repro-trace-1"
    # same nested FillPatch split as the functional artifacts
    split = split_of(events, "FillPatch")
    assert "ParallelCopy" in split and "FillBoundary" in split
    records = MetricsRegistry.read_jsonl(paths["metrics"])
    assert len(records) == 2
    for rec, (nodes, _g, _p) in zip(records, table):
        assert rec["metrics"]["nodes"] == nodes
        assert rec["metrics"]["active_cells.lev0"] > 0
    # charged time accumulates across steps
    assert records[1]["time"] > records[0]["time"] > 0
    # the same report renderer handles the charged artifacts
    text = format_report(events, other, records)
    assert "charged time" in text
    assert "FillPatch" in text


class TestServiceRunDirectories:
    """``python -m repro.report`` on a serve-layer run directory."""

    def _record(self, state, **extra):
        rec = {"id": "r00042", "state": state, "priority": 0,
               "label": "svc-test", "reason": "", "result": None}
        rec.update(extra)
        return rec

    def test_done_service_run_renders_with_header(self, recorded_run,
                                                  tmp_path, capsys):
        import json
        import shutil

        from repro.observability.report import main

        run_dir, _sim, _bd = recorded_run
        svc = tmp_path / "r00042"
        svc.mkdir()
        for name in ("trace.json", "metrics.jsonl"):
            shutil.copy(run_dir / name, svc / name)
        (svc / "run.json").write_text(json.dumps(self._record(
            "done", latency_s=1.25,
            result={"status": "done", "case": "dmr", "steps": 3})))
        assert main([str(svc)]) == 0
        out = capsys.readouterr().out
        assert "service run r00042 [done]" in out
        assert "label=svc-test" in out
        assert "case=dmr" in out
        assert "hot regions" in out  # the normal report still follows

    def test_still_running_partial_stream_degrades(self, tmp_path, capsys):
        import json

        from repro.observability.report import main

        svc = tmp_path / "r00042"
        svc.mkdir()
        (svc / "run.json").write_text(json.dumps(self._record("running")))
        # the streaming writer was killed mid-line: no complete record yet
        (svc / "metrics.jsonl").write_text('{"step": 1, "ti')
        assert main([str(svc)]) == 2
        err = capsys.readouterr().err
        assert "still 'running'" in err
        assert "retry once the run has progressed" in err
        assert "Traceback" not in err

    def test_queued_run_without_artifacts(self, tmp_path, capsys):
        import json

        from repro.observability.report import main

        svc = tmp_path / "r00042"
        svc.mkdir()
        (svc / "run.json").write_text(json.dumps(self._record("queued")))
        assert main([str(svc)]) == 2
        err = capsys.readouterr().err
        assert "still 'queued'" in err
        assert "Traceback" not in err

    def test_torn_run_record_is_ignored(self, recorded_run, tmp_path,
                                        capsys):
        import shutil

        from repro.observability.report import main

        run_dir, _sim, _bd = recorded_run
        svc = tmp_path / "r00042"
        svc.mkdir()
        for name in ("trace.json", "metrics.jsonl"):
            shutil.copy(run_dir / name, svc / name)
        (svc / "run.json").write_text('{"id": "r000')  # torn mid-write
        assert main([str(svc)]) == 0  # reported as a plain run directory
        out = capsys.readouterr().out
        assert "service run" not in out
        assert "hot regions" in out
