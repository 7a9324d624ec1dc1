"""Tests for the perfscope task-lifecycle attribution layer.

Unit coverage of the span/trace machinery (reconciliation, clamping,
critical path, capacity tiling) on synthetic graphs, plus integration:
a real DMR run under both executors must produce an attribution whose
buckets tile the lane capacity, export ``perf.*`` gauges through the
recorder, and render a bottleneck section in the run report.
"""

import multiprocessing

import pytest

from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.observability.perfscope import (
    PerfScope,
    StageTrace,
    StepPerf,
    attribute_stage,
    critical_path,
    kernel_class,
)
from repro.observability.perfscope.critpath import span_weight
from repro.observability.perfscope.lifecycle import box_of

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


# -- synthetic graphs --------------------------------------------------------

class FakeTask:
    def __init__(self, tid, name, kind="compute", deps=()):
        self.tid = tid
        self.name = name
        self.kind = kind
        self.deps = tuple(deps)


class FakeGraph:
    def __init__(self, tasks):
        self.tasks = tasks


def chain_graph():
    """A -> B -> C plus an independent D."""
    return FakeGraph([
        FakeTask(0, "Box(L0,b0)"),
        FakeTask(1, "Box(L0,b1)", deps=(0,)),
        FakeTask(2, "AverageDown(L1->L0)", deps=(1,)),
        FakeTask(3, "FB_nowait(L0)", kind="comm-post"),
    ])


class TestNames:
    def test_kernel_class_strips_instance(self):
        assert kernel_class("Box(L1,b3)") == "Box"
        # a batch node is named after its first member, "x" its size
        assert kernel_class("Box(L1,b3)x8") == "Box"
        assert kernel_class("FB_nowait(L0)") == "FB_nowait"
        assert kernel_class("AverageDown(L1->L0)") == "AverageDown"

    def test_box_of(self):
        # (level, first box, members)
        assert box_of("Box(L1,b3)") == (1, 3, 1)
        assert box_of("Box(L1,b3)x8") == (1, 3, 8)
        assert box_of("Interp(L2,b11)") == (2, 11, 1)
        assert box_of("FB_nowait(L0)") is None


class TestStageTrace:
    def test_inline_lifecycle(self):
        trace = StageTrace(chain_graph(), nlanes=1)
        trace.enqueued(0, 0.0)
        trace.ran_inline(0, 0.1, 0.5)
        trace.merged(0, 0.65)
        s = trace.spans[0]
        assert s.execute_s == pytest.approx(0.5)
        assert s.t_collected == pytest.approx(0.6)  # collected at finish
        assert s.merge_s == pytest.approx(0.05)
        assert s.queue_wait_s == 0.0  # inline tasks never queue
        assert s.result_s == 0.0

    def test_offloaded_reconciles_absolute_clocks(self):
        trace = StageTrace(chain_graph(), nlanes=2)
        t0 = trace.t0_abs
        lifecycle = {"sid": 0, "serialize_s": 0.01, "pickle_bytes": 512,
                     "t_dispatched": t0 + 0.10, "t_started": t0 + 0.15,
                     "t_finished": t0 + 0.40, "deserialize_s": 0.002}
        trace.offloaded_done(0, lane=1, dur=0.25, lifecycle=lifecycle,
                             t_collected=0.45)
        s = trace.spans[0]
        assert s.offloaded and s.lane == 1
        assert s.queue_wait_s == pytest.approx(0.05)
        assert s.execute_s == pytest.approx(0.25)
        assert s.result_s == pytest.approx(0.05)
        assert s.pickle_bytes == 512
        assert trace.reconcile_errors == 0

    def test_negative_queue_wait_clamped_and_counted(self):
        trace = StageTrace(chain_graph(), nlanes=2)
        t0 = trace.t0_abs
        lifecycle = {"t_dispatched": t0 + 0.20, "t_started": t0 + 0.10,
                     "t_finished": t0 + 0.30}
        trace.offloaded_done(0, lane=1, dur=0.2, lifecycle=lifecycle,
                             t_collected=0.35)
        s = trace.spans[0]
        assert trace.reconcile_errors == 1
        assert s.queue_wait_s == 0.0
        assert s.t_started == s.t_dispatched

    def test_sid_mismatch_counted_not_trusted(self):
        trace = StageTrace(chain_graph(), nlanes=2, sid_base=100)
        trace.offloaded_done(0, lane=1, dur=0.1,
                             lifecycle={"sid": 7}, t_collected=0.2)
        assert trace.reconcile_errors == 1

    def test_sid_base_offsets_deps(self):
        trace = StageTrace(chain_graph(), nlanes=1, sid_base=10)
        assert trace.sid(0) == 10
        assert trace.spans[1].deps == (10,)


class TestCriticalPath:
    def _trace(self, durations):
        trace = StageTrace(chain_graph(), nlanes=1)
        t = 0.0
        for tid, dur in enumerate(durations):
            trace.ran_inline(tid, t, dur)
            trace.merged(tid, t + dur)
            t += dur
        return trace

    def test_longest_chain_wins(self):
        # chain 0->1->2 totals 0.6; independent task 3 is 0.5
        trace = self._trace([0.1, 0.2, 0.3, 0.5])
        seconds, path = critical_path(trace)
        assert seconds == pytest.approx(0.6)
        assert [s.name for s in path] == [
            "Box(L0,b0)", "Box(L0,b1)", "AverageDown(L1->L0)"]

    def test_independent_task_can_dominate(self):
        trace = self._trace([0.1, 0.1, 0.1, 5.0])
        seconds, path = critical_path(trace)
        assert seconds == pytest.approx(5.0)
        assert [s.name for s in path] == ["FB_nowait(L0)"]

    def test_weight_includes_lifecycle(self):
        trace = StageTrace(chain_graph(), nlanes=2)
        t0 = trace.t0_abs
        trace.offloaded_done(0, lane=1, dur=0.2, lifecycle={
            "serialize_s": 0.01, "t_dispatched": t0 + 0.1,
            "t_started": t0 + 0.15, "t_finished": t0 + 0.35,
        }, t_collected=0.40)
        trace.merged(0, 0.42)
        s = trace.spans[0]
        # serialize + queue wait + execute + result + merge
        assert span_weight(s) == pytest.approx(
            0.01 + 0.05 + 0.20 + 0.05 + 0.02)


class TestAttribution:
    def test_serial_stage_tiles_capacity(self):
        trace = StageTrace(chain_graph(), nlanes=1)
        t = 0.0
        for tid in range(4):
            trace.ran_inline(tid, t, 0.2)
            trace.merged(tid, t + 0.25)  # 0.05 merge gap each
            t += 0.25
        trace.close(t)
        step = attribute_stage(trace)
        assert step.capacity_s == pytest.approx(1.0)
        assert step.execute_s == pytest.approx(0.8)
        assert step.merge_s == pytest.approx(0.2)
        assert step.idle_s == pytest.approx(0.0, abs=1e-12)
        assert step.coverage == pytest.approx(1.0)

    def test_worker_lane_idle_measured_from_gaps(self):
        trace = StageTrace(chain_graph(), nlanes=2)
        t0 = trace.t0_abs
        # one offloaded task busy [0.2, 0.6] on lane 1; makespan 1.0
        trace.offloaded_done(0, lane=1, dur=0.4, lifecycle={
            "t_dispatched": t0 + 0.2, "t_started": t0 + 0.2,
            "t_finished": t0 + 0.6,
        }, t_collected=0.6)
        trace.merged(0, 0.6)
        for tid in (1, 2, 3):  # driver busy the whole time
            trace.ran_inline(tid, (tid - 1) / 3, 1 / 3)
            trace.merged(tid, tid / 3)
        trace.close(1.0)
        step = attribute_stage(trace)
        # lane 1 idle = [0,0.2] + [0.6,1.0] = 0.6
        assert step.lane_idle[1] == pytest.approx(0.6)
        assert step.lane_idle[0] == pytest.approx(0.0, abs=1e-9)
        assert step.offloaded == 1

    def test_driver_gap_under_result_window_is_result_not_idle(self):
        graph = FakeGraph([FakeTask(0, "Box(L0,b0)")])
        trace = StageTrace(graph, nlanes=2)
        t0 = trace.t0_abs
        # worker finishes at 0.4 but the driver only collects at 0.7:
        # the driver's [0.4, 0.7] gap is result-wait, not idle
        trace.offloaded_done(0, lane=1, dur=0.4, lifecycle={
            "t_dispatched": t0 + 0.0, "t_started": t0 + 0.0,
            "t_finished": t0 + 0.4,
        }, t_collected=0.7)
        trace.merged(0, 0.7)
        trace.close(0.7)
        step = attribute_stage(trace)
        assert step.result_s >= 0.3 - 1e-9  # the measured driver gap
        assert step.lane_idle[0] < 0.7 - 0.3 + 1e-9

    def test_step_perf_merge_accumulates(self):
        a, b = StepPerf(), StepPerf()
        a.execute_s, a.capacity_s, a.stages = 1.0, 2.0, 1
        b.execute_s, b.capacity_s, b.stages = 0.5, 1.0, 2
        a.per_class["Box"] = {"count": 2, "execute_s": 1.0}
        b.per_class["Box"] = {"count": 1, "execute_s": 0.5}
        b.box_costs[(0, 1, 4)] = 0.5
        a.merge(b)
        assert a.execute_s == pytest.approx(1.5)
        assert a.stages == 3
        assert a.per_class["Box"]["count"] == 3
        assert a.box_costs[(0, 1, 4)] == pytest.approx(0.5)

    def test_as_gauges_flat_schema(self):
        step = StepPerf()
        step.capacity_s = step.execute_s = 1.0
        step.critical_path_s = 0.5
        step.lane_idle[1] = 0.25
        step.per_class["Box"] = {"count": 3, "execute_s": 1.0}
        step.cp_tasks = {"Box(L0,b0)": 0.5}
        step.box_costs[(1, 2, 8)] = 0.75
        g = step.as_gauges()
        assert g["realized_parallelism"] == pytest.approx(2.0)
        assert g["lane.1.idle_s"] == pytest.approx(0.25)
        assert g["class.Box.count"] == 3
        assert g["cp.Box(L0,b0)"] == pytest.approx(0.5)
        assert g["box_cost.L1.b2x8"] == pytest.approx(0.75)


class TestPerfScope:
    def test_disabled_scope_collects_nothing(self):
        scope = PerfScope(enabled=False)
        scope.begin_step()
        assert scope.begin_stage(chain_graph(), 1) is None
        assert scope.finalize_step() is None
        assert scope.total is None

    def test_abort_drops_partial_step(self):
        scope = PerfScope()
        scope.begin_step()
        trace = scope.begin_stage(chain_graph(), 1)
        trace.ran_inline(0, 0.0, 1.0)
        scope.abort_step()
        scope.begin_step()
        step = scope.finalize_step()
        assert step.stages == 0 and step.tasks == 0

    def test_sids_unique_across_stages(self):
        scope = PerfScope()
        scope.begin_step()
        t1 = scope.begin_stage(chain_graph(), 1)
        t2 = scope.begin_stage(chain_graph(), 1)
        assert t2.sid(0) == t1.sid(3) + 1

    def test_overhead_self_metered(self):
        scope = PerfScope()
        scope.begin_step()
        scope.begin_stage(chain_graph(), 1)
        step = scope.finalize_step()
        assert step.overhead_s > 0.0
        assert step.overhead_s == scope.overhead_s


# -- integration -------------------------------------------------------------

def run_dmr(executor, workers=None, steps=2, **cfg):
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(
        version="2.0", nranks=6, ranks_per_node=6, max_level=1,
        max_grid_size=32, blocking_factor=8, regrid_int=2,
        executor=executor, workers=workers, **cfg))
    sim.initialize()
    sim.run(steps)
    return sim


class TestIntegration:
    def test_serial_run_attributes_full_capacity(self):
        sim = run_dmr("serial")
        perf = sim.engine.perfscope.total
        sim.close()
        assert perf.stages == 6  # 2 steps x 3 RK stages
        assert perf.offloaded == 0
        assert perf.reconcile_errors == 0
        assert abs(perf.coverage - 1.0) <= 0.05
        assert 0.0 < perf.critical_path_s <= perf.execute_s + 1e-9
        assert perf.box_costs  # per-batch histogram populated

    def test_batch_cost_is_charged_to_the_batch_not_its_first_member(
            self, monkeypatch):
        """One RK stage of the DMR deck: every compute node is a row of
        its own — ``(level, first box, members)`` — the rows are the
        compute class's execute time, and every box of the hierarchy is a
        member of exactly one of them."""
        from repro.observability.perfscope.lifecycle import PerfScope

        traces = []
        begin_stage = PerfScope.begin_stage

        def keep(self, graph, nlanes):
            traces.append(begin_stage(self, graph, nlanes))
            return traces[-1]

        monkeypatch.setattr(PerfScope, "begin_stage", keep)
        sim = run_dmr("serial", steps=1)
        boxes = [len(ba) for ba in sim.box_arrays[:sim.finest_level + 1]]
        sim.close()
        stage = attribute_stage(traces[0])
        compute = [s for s in traces[0].spans if s.kind == "compute"]
        assert stage.box_costs == {box_of(s.name): s.execute_s
                                   for s in compute}
        assert sum(stage.box_costs.values()) == pytest.approx(
            stage.per_class["Box"]["execute_s"])
        # the deck batches: a node of several members is one row, and no
        # row stands for a member of another node
        assert max(n for _, _, n in stage.box_costs) > 1
        for lev, nboxes in enumerate(boxes):
            assert sum(n for l, _, n in stage.box_costs if l == lev) == nboxes
            assert all(b < nboxes for l, b, _ in stage.box_costs if l == lev)
        row = stage.as_gauges()
        assert all(f"box_cost.L{l}.b{b}x{n}" in row
                   for l, b, n in stage.box_costs)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_pool_run_reconciles_worker_clocks(self):
        sim = run_dmr("pool", workers=2)
        perf = sim.engine.perfscope.total
        sim.close()
        assert perf.nlanes == 3
        assert perf.offloaded > 0
        assert perf.reconcile_errors == 0
        assert perf.serialize_s > 0.0
        assert perf.pickle_bytes > 0
        # the closure acceptance check: buckets tile lane capacity
        assert abs(perf.coverage - 1.0) <= 0.05
        # offloaded worker idle shows up on worker lanes
        assert set(perf.lane_idle) == {0, 1, 2}

    def test_config_disables_perfscope(self):
        sim = run_dmr("serial", perfscope=False, steps=1)
        assert sim.engine.perfscope.total is None
        assert sim.engine.last_step_perf is None
        sim.close()

    def test_recorded_run_exports_perf_gauges_and_report(self, tmp_path):
        from repro.observability.report import format_report, load_run

        case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
        sim = Crocco(case, CroccoConfig(
            version="2.0", nranks=6, ranks_per_node=6, max_level=1,
            max_grid_size=32, blocking_factor=8, regrid_int=2,
            executor="serial",
            trace_out=str(tmp_path / "trace.json"),
            metrics_out=str(tmp_path / "metrics.jsonl")))
        sim.initialize()
        sim.run(2)
        sim.close()
        events, other, records = load_run(str(tmp_path))
        m = records[-1]["metrics"]
        assert m["perf.critical_path_s"] > 0.0
        assert m["perf.realized_parallelism"] > 0.0
        assert abs(m["perf.coverage"] - 1.0) <= 0.05
        assert "perf.class.Box.execute_s" in m
        report = format_report(events, other, records)
        assert "-- bottleneck" in report
        assert "critical path" in report
        assert "per-batch execute cost" in report
        assert "per-box execute cost" not in report

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_pool_trace_carries_lifecycle_slices(self, tmp_path):
        import json

        from repro.observability.tracer import validate_chrome_trace

        case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
        sim = Crocco(case, CroccoConfig(
            version="2.0", nranks=6, ranks_per_node=6, max_level=1,
            max_grid_size=32, blocking_factor=8, regrid_int=2,
            executor="pool", workers=2,
            trace_out=str(tmp_path / "trace.json")))
        sim.initialize()
        sim.run(2)
        sim.close()
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"]
                 if e.get("cat") == "lifecycle"}
        assert {"serialize", "wait", "collect"} <= names
