"""One timing record per task, and the views derived from it.

The scheduler reads the clock twice per task; the TinyProfiler regions a
task declares, its tracer spans and the :class:`ScheduleReport` (critical
path of each stage DAG, the concurrency it offers, task time per kernel
class and per compute batch) are all that record.  Unit coverage on
synthetic graphs, then the DMR deck end to end.
"""

import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cases.dmr import DoubleMachReflection
from repro.cli import build_case
from repro.core.crocco import Crocco, CroccoConfig
from repro.io.inputs import InputDeck
from repro.observability.report import format_report, load_run
from repro.profiling import tinyprofiler
from repro.profiling.tinyprofiler import TinyProfiler
from repro.runtime import scheduler
from repro.runtime.rk3graph import StageGraph
from repro.runtime.scheduler import ScheduleReport

DMR_DECK = Path(__file__).parents[2] / "examples" / "decks" / "dmr.inputs"

#: the regions stage-graph tasks declare (``rk3graph``), by region name
TASK_REGIONS = {
    "FillBoundary_nowait": ("FillPatch", "FillBoundary_nowait"),
    "FillBoundary_finish": ("FillPatch", "FillBoundary_finish"),
    "ParallelCopy": ("FillPatch", "ParallelCopy"),
    "AverageDown": ("AverageDown",),
}


# -- synthetic graphs --------------------------------------------------------

def nothing():
    return None


def chain_graph():
    """A -> B -> C plus an independent D."""
    g = StageGraph()
    a = g.add("Box(L0,b0)x1", nothing)
    b = g.add("Box(L0,b1)x1", nothing, after=[a])
    g.add("AverageDown(L1->L0)", nothing, kind="comm", after=[b])
    g.add("FB_nowait(L0)", nothing, kind="comm-post")
    return g


def diamond_graph():
    """A -> {B, C} -> D."""
    g = StageGraph()
    a = g.add("FB_nowait(L0)", nothing, kind="comm-post")
    b = g.add("Box(L0,b0)x2", nothing, after=[a])
    c = g.add("Box(L0,b2)x1", nothing, after=[a])
    g.add("AverageDown(L1->L0)", nothing, kind="comm", after=[b, c])
    return g


def stage(graph, durations, gap=0.0):
    """The report of ``graph`` run with these task durations, ``gap``
    seconds apart."""
    records, t = [], 0.0
    for dur in durations:
        records.append((t, dur))
        t += dur + gap
    return ScheduleReport.of_stage(graph.tasks, records, 0.0, t)


def test_longest_chain_wins():
    # chain 0->1->2 totals 0.6; independent task 3 is 0.5
    rep = stage(chain_graph(), [0.1, 0.2, 0.3, 0.5])
    assert rep.critical_path_s == pytest.approx(0.6)
    assert rep.concurrency == pytest.approx(1.1 / 0.6)


def test_independent_task_can_dominate():
    rep = stage(chain_graph(), [0.1, 0.1, 0.1, 5.0])
    assert rep.critical_path_s == pytest.approx(5.0)


def test_diamond_takes_the_longer_branch():
    assert stage(diamond_graph(), [0.1, 0.3, 0.2, 0.1]).critical_path_s \
        == pytest.approx(0.5)
    assert stage(diamond_graph(), [0.1, 0.1, 0.4, 0.1]).critical_path_s \
        == pytest.approx(0.6)


def test_weight_is_the_recorded_duration():
    # gaps between tasks are scheduling, not task time: no chain holds them
    rep = stage(chain_graph(), [0.2, 0.2, 0.2, 0.1], gap=0.25)
    assert rep.critical_path_s == pytest.approx(0.6)
    assert rep.busy_s == pytest.approx(0.7)
    assert rep.makespan_s == pytest.approx(1.7)


def test_kernel_class_is_the_name_before_its_paren():
    rep = stage(diamond_graph(), [0.1, 0.3, 0.2, 0.1])
    assert rep.by_class == {
        "FB_nowait": [1, pytest.approx(0.1)],
        "Box": [2, pytest.approx(0.5)],
        "AverageDown": [1, pytest.approx(0.1)]}
    # a compute batch is its own row, by its task name
    assert rep.by_batch == {"Box(L0,b0)x2": pytest.approx(0.3),
                            "Box(L0,b2)x1": pytest.approx(0.2)}


def test_merge_accumulates_classes_and_batches():
    a = stage(diamond_graph(), [0.1, 0.3, 0.2, 0.1])
    b = stage(diamond_graph(), [0.1, 0.1, 0.4, 0.1])
    a.merge(b)
    assert a.graphs == 2
    assert a.critical_path_s == pytest.approx(1.1)
    assert a.by_class["Box"] == [4, pytest.approx(1.0)]
    assert a.by_batch["Box(L0,b2)x1"] == pytest.approx(0.6)


def test_as_dict_flat_schema():
    g = stage(diamond_graph(), [0.1, 0.3, 0.2, 0.1]).as_dict()
    assert g["critical_path_s"] == pytest.approx(0.5)
    assert g["concurrency"] == pytest.approx(0.7 / 0.5)
    assert g["class.Box.count"] == 2
    assert g["class.Box.execute_s"] == pytest.approx(0.5)
    assert g["batch.Box(L0,b0)x2"] == pytest.approx(0.3)
    assert g["tasks.comm_post"] == 1


# -- the DMR deck ------------------------------------------------------------

def run_dmr(steps=2, **cfg):
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(
        version="2.0", nranks=6, ranks_per_node=6, max_level=1,
        max_grid_size=32, blocking_factor=8, regrid_int=2, **cfg))
    sim.initialize()
    sim.run(steps)
    return sim


def deck_sim(**overrides):
    config, run = InputDeck.from_file(DMR_DECK).resolve(overrides)
    sim = Crocco(build_case(run), config)
    sim.initialize()
    return sim


def test_dmr_run_reports_its_critical_path():
    sim = run_dmr()
    rep = sim.engine.total_report
    sim.close()
    assert rep.graphs == 6  # 2 steps x 3 RK stages
    assert 0.0 < rep.critical_path_s <= rep.busy_s <= rep.makespan_s
    assert rep.concurrency >= 1.0
    # every task is in one class row, every compute task in one batch row
    assert sum(n for n, _ in rep.by_class.values()) == sum(
        rep.tasks_by_kind.values())
    assert sum(s for _, s in rep.by_class.values()) == pytest.approx(
        rep.busy_s, rel=1e-12)
    assert sum(rep.by_batch.values()) == pytest.approx(rep.compute_s,
                                                       rel=1e-12)


def test_batch_rows_partition_the_boxes(monkeypatch):
    """One RK stage of the DMR deck: every compute batch is a row of its
    own, named by its first member and size, and every box of the
    hierarchy is a member of exactly one of them."""
    reports = []
    run = scheduler.Scheduler.run

    def keep(self, *args, **kwargs):
        reports.append(run(self, *args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(scheduler.Scheduler, "run", keep)
    sim = run_dmr(steps=1)
    sim.close()
    rows = reports[0].by_batch
    assert set(rows) == {f"Box(L{lev},b{b.ids[0]})x{len(b.ids)}"
                         for lev in range(sim.finest_level + 1)
                         for b in sim.batches[lev]}
    assert sum(rows.values()) == pytest.approx(reports[0].by_class["Box"][1],
                                               rel=1e-12)
    assert max(len(b.ids) for bs in sim.batches.values() for b in bs) > 1
    for lev in range(sim.finest_level + 1):
        members = sorted(i for b in sim.batches[lev] for i in b.ids)
        assert members == list(range(len(sim.box_arrays[lev])))


def test_abort_step_drops_the_partial_report():
    sim = run_dmr(steps=1)
    engine = sim.engine
    last, graphs = engine.last_step_report, engine.total_report.graphs
    engine.begin_step()
    engine.run_stage(sim.dt_history[-1], 0)
    engine.abort_step()
    engine.end_step()
    sim.close()
    assert engine.last_step_report is last
    assert engine.total_report.graphs == graphs


def test_recorded_run_has_the_bottleneck_section(tmp_path):
    sim = run_dmr(trace_out=str(tmp_path / "trace.json"),
                  metrics_out=str(tmp_path / "metrics.jsonl"))
    sim.close()
    events, other, records = load_run(str(tmp_path))
    m = records[-1]["metrics"]
    assert m["runtime.critical_path_s"] > 0.0
    assert m["runtime.concurrency"] >= 1.0
    assert m["runtime.class.Box.execute_s"] > 0.0
    assert any(k.startswith("runtime.batch.Box(") for k in m)
    assert not any(k.startswith("perf.") for r in records for k in r["metrics"])
    report = format_report(events, other, records)
    assert "-- bottleneck" in report
    assert re.search(r"critical path .* concurrency", report)
    assert "per-batch execute cost" in report


def test_the_scheduler_reads_the_clock_twice_per_task(monkeypatch):
    """Two reads per executed task plus two per stage, on the DMR deck;
    the regions the tasks declare read none (the profiler's clock runs
    only for the regions opened with ``region()``)."""
    reads = {"scheduler": 0, "profiler": 0, "regions": 0}

    def counting(key, clock):
        def read():
            reads[key] += 1
            return clock()
        return read

    monkeypatch.setattr(scheduler, "perf_counter",
                        counting("scheduler", scheduler.perf_counter))
    monkeypatch.setattr(tinyprofiler, "time", SimpleNamespace(
        perf_counter=counting("profiler", tinyprofiler.time.perf_counter)))
    region = TinyProfiler.region

    def counted_region(self, name):
        reads["regions"] += 1
        return region(self, name)

    monkeypatch.setattr(TinyProfiler, "region", counted_region)
    sim = deck_sim()
    reads.update(scheduler=0, profiler=0, regions=0)
    sim.run(2)
    rep = sim.engine.total_report
    sim.close()
    ntasks = sum(rep.tasks_by_kind.values())
    assert rep.graphs == 6 and ntasks > 200
    assert reads["scheduler"] == 2 * ntasks + 2 * rep.graphs
    assert reads["profiler"] == 2 * reads["regions"]


def test_profiler_trace_and_report_are_the_same_record(monkeypatch, tmp_path):
    """On a recorded 2-step DMR run, for every region the stage-graph tasks
    declare, TinyProfiler's inclusive time, the trace's region spans and
    the trace's task spans are the scheduler's task durations to the
    float, and the report's class rows are their sums."""
    got = []   # (task name, regions, t0, dur), in execution order
    of_stage = ScheduleReport.of_stage.__func__

    def keep(cls, order, records, *rest):
        got.extend((t.name, t.regions, t0, dur)
                   for t, (t0, dur) in zip(order, records))
        return of_stage(cls, order, records, *rest)

    monkeypatch.setattr(ScheduleReport, "of_stage", classmethod(keep))
    sim = deck_sim(record=str(tmp_path))
    got.clear()
    sim.run(2)
    prof, rep = sim.profiler, sim.engine.total_report
    sim.close()
    events, _other, _records = load_run(str(tmp_path))
    for name, regions in TASK_REGIONS.items():
        mine = [(task, dur) for task, r, _t0, dur in got if r == regions]
        assert mine, name
        durs = [dur for _, dur in mine]
        path = ("Advance",) + regions
        assert prof._stats[path].inclusive == sum(durs)
        spans = [e["dur"] for e in events if e.get("cat") == "region"
                 and e["args"]["path"] == "/".join(path)]
        tasks = {task for task, _ in mine}
        task_spans = [e["dur"] for e in events
                      if e.get("cat") == "task" and e["name"] in tasks]
        assert spans == task_spans == [d * 1e6 for d in durs]
    assert rep.by_class["AverageDown"][1] == pytest.approx(
        prof._stats[("Advance", "AverageDown")].inclusive, rel=1e-12)


def test_a_failed_task_replays_clean(tmp_path):
    """An armed ``task_error`` raises out of the middle of a stage: the
    profiler's region stack is empty after it, and the watchdog's retry
    gives the fault-free trajectory."""
    clean = run_dmr(steps=2)
    ref = {(lev, i): fab.whole().copy()
           for lev, mf in clean.state.items() for i, fab in mf}
    clean.close()
    sim = run_dmr(steps=2, faults_plan="task_error@1.1:FB_finish seed=5",
                  trace_out=str(tmp_path / "trace.json"))
    assert sim.faults.fired_by_kind() == {"task_error": 1}
    assert sim.resilience.counters.get("recovered_steps", 0) == 1
    assert sim.profiler._stack == []
    for (lev, i), arr in ref.items():
        np.testing.assert_array_equal(arr, sim.state[lev].fab(i).whole())
    sim.close()
