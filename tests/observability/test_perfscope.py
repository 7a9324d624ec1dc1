"""Tests for the perfscope task-lifecycle attribution layer.

Unit coverage of the span/trace machinery (critical path, makespan
tiling) on synthetic graphs, plus integration: a real DMR run must
produce an attribution whose buckets tile the makespan, export
``perf.*`` gauges through the recorder, and render a bottleneck section
in the run report.
"""

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
        trace = StageTrace(chain_graph())
        trace.ran(0, 0.1, 0.5)
        trace.merged(0, 0.65)
        s = trace.spans[0]
        assert s.execute_s == pytest.approx(0.5)
        assert s.t_finished == pytest.approx(0.6)
        assert s.merge_s == pytest.approx(0.05)

    def test_sid_base_offsets_deps(self):
        trace = StageTrace(chain_graph(), sid_base=10)
        assert trace.sid(0) == 10
        assert trace.spans[1].deps == (10,)


class TestCriticalPath:
    def _trace(self, durations):
        trace = StageTrace(chain_graph())
        t = 0.0
        for tid, dur in enumerate(durations):
            trace.ran(tid, t, dur)
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
        trace = StageTrace(chain_graph())
        trace.ran(0, 0.15, 0.20)
        trace.merged(0, 0.37)
        # execute + merge: what a dependent waits for
        assert span_weight(trace.spans[0]) == pytest.approx(0.20 + 0.02)


class TestAttribution:
    def test_serial_stage_tiles_capacity(self):
        trace = StageTrace(chain_graph())
        t = 0.1  # the schedule starts 0.1 s into the stage: an idle gap
        for tid in range(4):
            trace.ran(tid, t, 0.2)
            trace.merged(tid, t + 0.25)  # 0.05 merge gap each
            t += 0.25
        trace.close(t + 0.1)  # and ends 0.1 s before it closes: another
        step = attribute_stage(trace)
        assert step.makespan_s == pytest.approx(1.2)
        assert step.execute_s == pytest.approx(0.8)
        assert step.merge_s == pytest.approx(0.2)
        # idle is measured from the gaps, not as the remainder
        assert step.idle_s == pytest.approx(0.2)
        assert step.coverage == pytest.approx(1.0)

    def test_step_perf_merge_accumulates(self):
        a, b = StepPerf(), StepPerf()
        a.execute_s, a.makespan_s, a.stages = 1.0, 2.0, 1
        b.execute_s, b.makespan_s, b.stages = 0.5, 1.0, 2
        a.per_class["Box"] = {"count": 2, "execute_s": 1.0}
        b.per_class["Box"] = {"count": 1, "execute_s": 0.5}
        b.box_costs[(0, 1, 4)] = 0.5
        a.merge(b)
        assert a.execute_s == pytest.approx(1.5)
        assert a.makespan_s == pytest.approx(3.0)
        assert a.stages == 3
        assert a.per_class["Box"]["count"] == 3
        assert a.box_costs[(0, 1, 4)] == pytest.approx(0.5)

    def test_as_gauges_flat_schema(self):
        step = StepPerf()
        step.makespan_s = step.execute_s = 1.0
        step.critical_path_s = 0.5
        step.per_class["Box"] = {"count": 3, "execute_s": 1.0}
        step.cp_tasks = {"Box(L0,b0)": 0.5}
        step.box_costs[(1, 2, 8)] = 0.75
        g = step.as_gauges()
        assert g["realized_parallelism"] == pytest.approx(2.0)
        assert g["coverage"] == pytest.approx(1.0)
        assert g["class.Box.count"] == 3
        assert g["cp.Box(L0,b0)"] == pytest.approx(0.5)
        assert g["box_cost.L1.b2x8"] == pytest.approx(0.75)


class TestPerfScope:
    def test_disabled_scope_collects_nothing(self):
        scope = PerfScope(enabled=False)
        scope.begin_step()
        assert scope.begin_stage(chain_graph()) is None
        assert scope.finalize_step() is None
        assert scope.total is None

    def test_abort_drops_partial_step(self):
        scope = PerfScope()
        scope.begin_step()
        trace = scope.begin_stage(chain_graph())
        trace.ran(0, 0.0, 1.0)
        scope.abort_step()
        scope.begin_step()
        step = scope.finalize_step()
        assert step.stages == 0 and step.tasks == 0

    def test_sids_unique_across_stages(self):
        scope = PerfScope()
        scope.begin_step()
        t1 = scope.begin_stage(chain_graph())
        t2 = scope.begin_stage(chain_graph())
        assert t2.sid(0) == t1.sid(3) + 1

    def test_overhead_self_metered(self):
        scope = PerfScope()
        scope.begin_step()
        scope.begin_stage(chain_graph())
        step = scope.finalize_step()
        assert step.overhead_s > 0.0
        assert step.overhead_s == scope.overhead_s


# -- integration -------------------------------------------------------------

def run_dmr(steps=2, **cfg):
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(
        version="2.0", nranks=6, ranks_per_node=6, max_level=1,
        max_grid_size=32, blocking_factor=8, regrid_int=2, **cfg))
    sim.initialize()
    sim.run(steps)
    return sim


class TestIntegration:
    def test_serial_run_attributes_full_capacity(self):
        sim = run_dmr()
        perf = sim.engine.perfscope.total
        sim.close()
        assert perf.stages == 6  # 2 steps x 3 RK stages
        # the closure acceptance check: buckets tile the makespan
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

        def keep(self, graph, ntasks=None):
            traces.append(begin_stage(self, graph, ntasks))
            return traces[-1]

        monkeypatch.setattr(PerfScope, "begin_stage", keep)
        sim = run_dmr(steps=1)
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

    def test_config_disables_perfscope(self):
        sim = run_dmr(perfscope=False, steps=1)
        assert sim.engine.perfscope.total is None
        assert sim.engine.last_step_perf is None
        sim.close()

    def test_recorded_run_exports_perf_gauges_and_report(self, tmp_path):
        from repro.observability.report import format_report, load_run

        case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
        sim = Crocco(case, CroccoConfig(
            version="2.0", nranks=6, ranks_per_node=6, max_level=1,
            max_grid_size=32, blocking_factor=8, regrid_int=2,
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
