"""Scheduler: program order, overlap windows, and report accounting."""

import time

import pytest

from repro.observability.tracer import Tracer
from repro.profiling.tinyprofiler import TinyProfiler
from repro.runtime.rk3graph import StageGraph, build_stage_graph
from repro.runtime.scheduler import (ScheduleReport, Scheduler,
                                     _interval_overlap)
from tests.conftest import trace_events


def run_serial(graph, **kw):
    return Scheduler(**kw).run(graph.tasks)


def amr_program():
    """The stage program of a three-level curvilinear v2.0 DMR hierarchy
    (coordinate ParallelCopy posts included): its task names in order."""
    from tests.runtime.test_graph_replay import churn_sim

    sim = churn_sim()
    names = [t.name for t in build_stage_graph(sim).tasks]
    assert sim.finest_level == 2
    sim.close()
    return names


class TestPriorities:
    """What the ready queue's kind priorities did, the stage program does
    by its order."""

    def test_posts_run_before_independent_compute(self):
        names = amr_program()
        posts = [n for n in names if "_nowait(" in n]
        assert names[:len(posts)] == posts == [
            "FB_nowait(L0)", "FB_nowait(L1)", "PC_coords_nowait(L1)",
            "FB_nowait(L2)", "PC_coords_nowait(L2)"]

    def test_comm_wait_deferred_past_ready_compute(self):
        """A fine level's FillBoundary finishes only after the coarser
        levels' compute ran in its in-flight window."""
        names = amr_program()
        at = names.index
        for lev in (1, 2):
            coarse = [n for n in names if n.startswith(f"Box(L{lev - 1},")]
            assert coarse and all(at(n) < at(f"FB_finish(L{lev})")
                                  for n in coarse)
        assert at("FB_finish(L1)") < at("Interp(L1)") < at("BC_Fill(L1)")

    def test_submission_order_breaks_ties(self):
        """There is no tie to break: tasks run in the order they were
        appended, whatever their kind."""
        order = []
        g = StageGraph()
        p = g.add("p", lambda: order.append("p"), kind="comm-post",
                  channel="ch")
        g.add("c", lambda: order.append("c"), kind="compute")
        g.add("w", lambda: order.append("w"), kind="comm-wait",
              channel="ch", after=[p])
        g.add("b", lambda: order.append("b"), kind="bc")
        for n in range(4):
            g.add(f"c{n}", lambda n=n: order.append(n), kind="compute")
        run_serial(g)
        assert order == ["p", "c", "w", "b", 0, 1, 2, 3]


class TestDependencies:
    def test_hazard_chain_executes_in_order(self):
        """A write, a read and a second write of one fab, chained by
        their edges, run in program order and record those edges."""
        log = []
        g = StageGraph()
        w = g.add("w", lambda: log.append("w"))
        r = g.add("r", lambda: log.append("r"), after=[w])
        w2 = g.add("w2", lambda: log.append("w2"), after=[w, r])
        run_serial(g)
        assert log == ["w", "r", "w2"]
        assert [t.tid for t in g.tasks] == [0, 1, 2]
        assert (w.deps, r.deps, w2.deps) == ((), (0,), (0, 1))

    def test_all_tasks_run_exactly_once(self):
        count = {"n": 0}
        g = StageGraph()
        prev = []
        for n in range(10):
            prev = [g.add(f"t{n}", lambda: count.__setitem__("n", count["n"] + 1),
                          after=prev)]
        run_serial(g)
        assert count["n"] == 10


class TestOverlapMeasurement:
    def test_compute_inside_window_is_overlap(self):
        g = StageGraph()
        p = g.add("p", lambda: None, kind="comm-post", channel="ch")
        g.add("c", lambda: time.sleep(0.02), kind="compute")
        g.add("w", lambda: None, kind="comm-wait", channel="ch", after=[p])
        rep = run_serial(g)
        # compute ran between post completion and wait start
        assert rep.overlap_s > 0.01
        assert rep.overlap_frac > 0.5

    def test_no_window_no_overlap(self):
        g = StageGraph()
        g.add("c", lambda: time.sleep(0.01), kind="compute")
        rep = run_serial(g)
        assert rep.overlap_s == 0.0
        assert rep.compute_s > 0.0

    def test_compute_before_post_not_counted(self):
        g = StageGraph()
        c = g.add("c", lambda: time.sleep(0.02), kind="compute")
        p = g.add("p", lambda: None, kind="comm-post", channel="ch",
                  after=[c])
        g.add("w", lambda: None, kind="comm-wait", channel="ch", after=[p])
        rep = run_serial(g)
        assert rep.overlap_s == 0.0

    def test_unclosed_window_closes_at_makespan(self):
        g = StageGraph()
        g.add("p", lambda: None, kind="comm-post", channel="ch")
        g.add("c", lambda: time.sleep(0.02), kind="compute")
        rep = run_serial(g)
        assert rep.overlap_s > 0.01

    def test_interval_overlap_merges_windows(self):
        spans = [(0.0, 10.0)]
        windows = [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]
        assert abs(_interval_overlap(spans, windows) - 5.0) < 1e-12
        assert _interval_overlap([], windows) == 0.0
        assert _interval_overlap(spans, []) == 0.0


class TestReport:
    def test_counts_and_times(self):
        g = StageGraph()
        p = g.add("p", lambda: None, kind="comm-post", channel="x")
        g.add("w", lambda: None, kind="comm-wait", channel="x", after=[p])
        g.add("c", lambda: None, kind="compute")
        rep = run_serial(g)
        assert rep.tasks_by_kind == {"comm-post": 1, "comm-wait": 1,
                                     "compute": 1}
        assert rep.makespan_s > 0.0
        assert rep.graphs == 1
        d = rep.as_dict()
        assert d["tasks.comm_post"] == 1.0
        assert "overlap_frac" in d and "idle_frac" in d

    def test_merge_accumulates(self):
        a = ScheduleReport(tasks_by_kind={"compute": 2}, compute_s=1.0,
                          overlap_s=0.5, makespan_s=2.0, busy_s=1.0,
                          graphs=1)
        b = ScheduleReport(tasks_by_kind={"compute": 3, "bc": 1},
                          compute_s=2.0, overlap_s=0.25, makespan_s=1.0,
                          busy_s=2.0, graphs=1)
        a.merge(b)
        assert a.tasks_by_kind == {"compute": 5, "bc": 1}
        assert a.compute_s == 3.0 and a.overlap_s == 0.75
        assert a.busy_s == 3.0 and a.graphs == 2

    def test_idle_frac_serial_is_low(self):
        g = StageGraph()
        for n in range(3):
            g.add(f"c{n}", lambda: time.sleep(0.005), kind="compute")
        rep = run_serial(g)
        assert rep.idle_frac < 0.5


class TestTracer:
    def test_tasks_become_spans(self):
        tracer = Tracer()
        g = StageGraph()
        g.add("a-task", lambda: None, kind="compute")
        Scheduler(tracer=tracer).run(g.tasks)
        spans = [e for e in trace_events(tracer)
                 if e.get("ph") == "X" and e.get("name") == "a-task"]
        assert len(spans) == 1
        assert spans[0]["args"]["kind"] == "compute"

    def test_profiler_regions_nested(self):
        prof = TinyProfiler()
        g = StageGraph()
        g.add("t", lambda: None, kind="compute",
              regions=("Outer", "Inner"))
        Scheduler(profiler=prof).run(g.tasks)
        assert prof.calls("Outer") == 1
        assert prof.calls("Inner") == 1

    def test_regions_are_the_task_record(self):
        """The task's regions and its span are one (t0, dur): same start,
        same duration, on the driver and runtime tracks."""
        prof, tracer = TinyProfiler(), Tracer()
        prof.tracer = tracer
        g = StageGraph()
        g.add("t", lambda: time.sleep(0.002), regions=("Outer", "Inner"))
        Scheduler(profiler=prof, tracer=tracer).run(g.tasks)
        spans = {e["name"]: e for e in trace_events(tracer) if e["ph"] == "X"}
        outer, inner, task = spans["Outer"], spans["Inner"], spans["t"]
        assert outer["ts"] == inner["ts"] == task["ts"]
        assert outer["dur"] == inner["dur"] == task["dur"] >= 2e3
        assert inner["args"]["path"] == "Outer/Inner"
        assert prof.total("Inner") == prof.total("Outer") == task["dur"] / 1e6


class TestFailure:
    """A task that raises leaves no region open, and its regions are
    traced: the watchdog's retry then runs the program again from a clean
    profiler."""

    def run_failing(self, armed=None):
        prof, tracer = TinyProfiler(), Tracer()
        prof.tracer = tracer

        def body():
            with prof.region("Body"):
                raise RuntimeError("boom")

        g = StageGraph()
        g.add("ok", lambda: None, regions=("Outer",))
        g.add("bad", body, regions=("Outer", "Inner"))
        with prof.region("Advance"), pytest.raises(RuntimeError):
            Scheduler(profiler=prof, tracer=tracer).run(g.tasks, armed=armed)
        assert prof._stack == []
        return prof, tracer

    def test_raising_body_closes_its_regions(self):
        prof, tracer = self.run_failing()
        # the failed task's regions were charged and traced, nested
        assert prof.calls("Inner") == 1 and prof.calls("Body") == 1
        paths = {e["args"]["path"] for e in trace_events(tracer)
                 if e.get("cat") == "region"}
        assert "Advance/Outer/Inner/Body" in paths

    def test_armed_fault_closes_its_regions(self):
        prof, _ = self.run_failing(armed={1: RuntimeError("injected")})
        assert prof.calls("Inner") == 1 and prof.calls("Body") == 0
