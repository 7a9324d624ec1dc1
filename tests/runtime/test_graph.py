"""The hazard oracle (``tests/runtime/hazard_oracle.py``) itself: DataKey
overlap, hazard-based dependency inference and the ready-queue order —
the reference the stage program is checked against."""

import pytest

from tests.runtime.hazard_oracle import (ALL_COMPS, DataKey, TaskGraph,
                                         replay_order)


def noop():
    pass


class TestDataKey:
    def test_same_box_overlaps(self):
        a = DataKey("state", 0)
        b = DataKey("state", 0)
        assert a.overlaps(b) and b.overlaps(a)

    def test_different_mf_or_box_disjoint(self):
        a = DataKey("state", 0)
        assert not a.overlaps(DataKey("du", 0))
        assert not a.overlaps(DataKey("state", 1))

    def test_component_ranges(self):
        lo = DataKey("state", 0, 0, 2)
        hi = DataKey("state", 0, 2, 5)
        assert not lo.overlaps(hi)
        assert lo.overlaps(DataKey("state", 0, 1, 3))
        assert lo.overlaps(DataKey("state", 0, *ALL_COMPS))

    def test_hashable_and_frozen(self):
        k = DataKey("state", 3)
        assert k in {k}
        with pytest.raises(AttributeError):
            k.box = 4


class TestHazards:
    def test_raw(self):
        g = TaskGraph()
        w = g.add("w", noop, writes=[DataKey("s", 0)])
        r = g.add("r", noop, reads=[DataKey("s", 0)])
        assert w.tid in r.deps
        assert r.tid in w.dependents

    def test_waw(self):
        g = TaskGraph()
        w1 = g.add("w1", noop, writes=[DataKey("s", 0)])
        w2 = g.add("w2", noop, writes=[DataKey("s", 0)])
        assert w1.tid in w2.deps

    def test_war(self):
        g = TaskGraph()
        g.add("w0", noop, writes=[DataKey("s", 0)])
        r = g.add("r", noop, reads=[DataKey("s", 0)])
        w = g.add("w", noop, writes=[DataKey("s", 0)])
        assert r.tid in w.deps

    def test_independent_boxes_no_edge(self):
        g = TaskGraph()
        a = g.add("a", noop, writes=[DataKey("s", 0)])
        b = g.add("b", noop, writes=[DataKey("s", 1)])
        assert not b.deps and not a.dependents

    def test_read_write_same_task_no_self_dep(self):
        g = TaskGraph()
        t = g.add("t", noop, reads=[DataKey("s", 0)],
                  writes=[DataKey("s", 0)])
        assert t.tid not in t.deps

    def test_disjoint_comp_writes_no_edge(self):
        g = TaskGraph()
        w1 = g.add("w1", noop, writes=[DataKey("s", 0, 0, 2)])
        w2 = g.add("w2", noop, writes=[DataKey("s", 0, 2, 4)])
        assert w1.tid not in w2.deps

    def test_reader_does_not_depend_on_nonoverlapping_writer(self):
        g = TaskGraph()
        w = g.add("w", noop, writes=[DataKey("s", 0, 0, 2)])
        r = g.add("r", noop, reads=[DataKey("s", 0, 3, 4)])
        assert w.tid not in r.deps

    def test_explicit_after(self):
        g = TaskGraph()
        a = g.add("a", noop)
        b = g.add("b", noop, after=[a])
        assert a.tid in b.deps

    def test_unknown_kind_rejected(self):
        g = TaskGraph()
        with pytest.raises(ValueError, match="unknown task kind"):
            g.add("x", noop, kind="banana")


class TestQueries:
    def _chain(self):
        g = TaskGraph()
        k = DataKey("s", 0)
        t0 = g.add("t0", noop, writes=[k])
        t1 = g.add("t1", noop, reads=[k], writes=[DataKey("s", 1)])
        t2 = g.add("t2", noop, reads=[DataKey("s", 1)])
        free = g.add("free", noop, kind="comm-post",
                     writes=[DataKey("other", 0)])
        return g, (t0, t1, t2, free)

    def test_topological_order_respects_deps(self):
        """The recorded replay order is a topological order, of the whole
        graph and of every prefix."""
        g, _ = self._chain()
        for n in range(len(g) + 1):
            order, _ = replay_order(g, n)
            pos = {t.tid: i for i, t in enumerate(order)}
            assert sorted(pos) == list(range(n))
            for t in g.tasks[:n]:
                for d in t.deps:
                    assert pos[d] < pos[t.tid]

    def test_cycle_detected(self):
        g = TaskGraph()
        a = g.add("a", noop)
        b = g.add("b", noop, after=[a])
        # force a cycle through the back door
        a.deps.add(b.tid)
        b.dependents.add(a.tid)
        with pytest.raises(RuntimeError, match="cycle"):
            replay_order(g)

    def test_counts_by_kind(self):
        g, _ = self._chain()
        assert g.counts_by_kind() == {"compute": 3, "comm-post": 1}
        assert g.counts_by_kind(2) == {"compute": 2}
        assert len(g) == 4
        # computed once per prefix, with the order, and then replayed
        assert replay_order(g, 2) is replay_order(g, 2)
        assert replay_order(g, 2)[1] == {"compute": 2}
