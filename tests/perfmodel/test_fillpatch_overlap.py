"""Model vs runtime: the nowait/finish decomposition agrees in shape.

Two halves of the same claim, cross-checked:

1. The performance model's Fig. 7 FillPatch split (``fillpatch_split``)
   predicts the *finish* share — the part the runtime can hide behind
   interior compute — grows monotonically with node count.
2. The task-graph runtime *measures* overlap on real schedules with the
   same shape: a 2-level AMR run (which has concurrent comm windows and
   runnable coarse-level compute) shows strictly more overlap than a
   single-level serial run, whose measured overlap is exactly zero.
"""

import numpy as np

from repro.core.versions import get_version
from repro.perfmodel.calibration import CAL
from repro.perfmodel.decomposition import dmr_band_hierarchy
from repro.perfmodel.execution import fillpatch_split

NODE_COUNTS = (4, 16, 64, 256)


def posting_and_finishing(version, levels, nodes):
    """The modeled split's posting (nowait) and finishing seconds, and
    their shares of the whole."""
    split = fillpatch_split(version, levels, nodes, CAL)
    nowait = split["FillBoundary_nowait"] + split["ParallelCopy_nowait"]
    finish = split["FillBoundary_finish"] + split["ParallelCopy_finish"]
    return {"nowait_s": nowait, "finish_s": finish,
            "nowait_frac": nowait / (nowait + finish),
            "finish_frac": finish / (nowait + finish)}


def fractions(version, nodes, weak_points=5e6):
    v = get_version(version)
    nranks = CAL.spec.ranks_for(nodes, v.on_gpu)
    rpn = CAL.spec.ranks_per_node(v.on_gpu)
    levels = dmr_band_hierarchy(weak_points * nodes, nranks, rpn, v.amr, CAL)
    return posting_and_finishing(v, levels, nodes)


class TestModelShape:
    def test_fractions_are_a_partition(self):
        for nodes in NODE_COUNTS:
            f = fractions("2.1", nodes)
            assert f["nowait_s"] > 0 and f["finish_s"] > 0
            assert abs(f["nowait_frac"] + f["finish_frac"] - 1.0) < 1e-12
            assert f["nowait_s"] + f["finish_s"] > 0

    def test_finish_share_monotone_at_fixed_decomposition(self):
        """Fig. 7 trend: completion cost grows with scale.  At a fixed
        level decomposition the only node-dependent term is the
        completion (latency/metadata) side, so the share is strictly
        monotone."""
        v = get_version("2.1")
        nranks = CAL.spec.ranks_for(NODE_COUNTS[0], v.on_gpu)
        rpn = CAL.spec.ranks_per_node(v.on_gpu)
        levels = dmr_band_hierarchy(5e6 * NODE_COUNTS[0], nranks, rpn,
                                    v.amr, CAL)
        fracs = [posting_and_finishing(v, levels, n)["finish_frac"]
                 for n in NODE_COUNTS]
        assert all(b > a for a, b in zip(fracs, fracs[1:])), fracs

    def test_finish_share_trend_under_weak_scaling(self):
        """Re-decomposing per node count adds discrete box-count noise,
        but the endpoint trend survives: 256 nodes pay a larger finish
        share than 4."""
        lo = fractions("2.1", NODE_COUNTS[0])["finish_frac"]
        hi = fractions("2.1", NODE_COUNTS[-1])["finish_frac"]
        assert hi > lo

    def test_finish_seconds_monotone_in_nodes(self):
        secs = [fractions("2.1", n)["finish_s"] for n in NODE_COUNTS]
        assert all(b > a for a, b in zip(secs, secs[1:])), secs


class TestMeasuredShape:
    """The runtime's measured overlap reproduces the model's shape:
    more concurrent comm/compute structure => more measured overlap."""

    def _run(self, max_level):
        from repro.cases.dmr import DoubleMachReflection
        from repro.core.crocco import Crocco, CroccoConfig

        case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
        sim = Crocco(case, CroccoConfig(
            version="2.0", nranks=6, ranks_per_node=6, max_level=max_level,
            max_grid_size=32, blocking_factor=8, regrid_int=2,
        ))
        sim.initialize()
        sim.run(2)
        rep = sim.engine.total_report
        sim.close()
        return rep

    def test_overlap_grows_with_level_count(self):
        single = self._run(max_level=0)
        two = self._run(max_level=1)
        # single-level serial: nothing runnable inside the lone comm window
        assert single.overlap_s == 0.0
        # 2-level: coarse compute hides inside the fine level's windows
        assert two.overlap_s > 0.0
        assert two.overlap_frac > single.overlap_frac

    def test_split_halves_both_measured(self):
        rep = self._run(max_level=1)
        assert rep.posted_comm_s > 0.0
        assert rep.finish_comm_s > 0.0
        # measured decomposition mirrors the model's two-part split
        total = rep.posted_comm_s + rep.finish_comm_s
        measured_finish_frac = rep.finish_comm_s / total
        assert 0.0 < measured_finish_frac < 1.0
