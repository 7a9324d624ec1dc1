"""Tests for the TinyProfiler region timers."""

import pytest

from repro.profiling.tinyprofiler import TinyProfiler
from tests.conftest import profiler_children


def test_region_timing_accumulates():
    prof = TinyProfiler()
    for _ in range(3):
        with prof.region("A"):
            pass
    assert prof.calls("A") == 3
    assert prof.total("A") >= 0.0


def test_nested_regions_and_breakdown():
    prof = TinyProfiler()
    with prof.region("outer"):
        with prof.region("inner1"):
            pass
        with prof.region("inner2"):
            pass
    bd = profiler_children(prof, "outer")
    assert set(bd) == {"inner1", "inner2"}
    assert prof.total("outer") >= bd["inner1"] + bd["inner2"] - 1e-9


def test_charge_simulated_time():
    prof = TinyProfiler()
    prof.charge("FillPatch", 2.5)
    prof.charge("FillPatch", 1.5)
    prof.charge("Advance", 4.0)
    assert prof.total("FillPatch") == pytest.approx(4.0)
    assert prof.calls("FillPatch") == 2
    assert prof.top_level() == {"FillPatch": pytest.approx(4.0),
                                "Advance": pytest.approx(4.0)}


def test_charge_under_charged_region():
    prof = TinyProfiler()
    with prof.charged_region("FillPatch"):
        prof.charge("ParallelCopy", 3.0)
        prof.charge("FillBoundary", 1.0)
    bd = profiler_children(prof, "FillPatch")
    assert bd == {"ParallelCopy": pytest.approx(3.0),
                  "FillBoundary": pytest.approx(1.0)}
    # charged children roll up into the parent's inclusive time
    assert prof.total("FillPatch") == pytest.approx(4.0)


def test_charge_negative_rejected():
    prof = TinyProfiler()
    with pytest.raises(ValueError):
        prof.charge("X", -1.0)


def test_exclusive_time():
    prof = TinyProfiler()
    with prof.charged_region("outer"):
        prof.charge("inner", 1.0)
    prof.charge("outer", 5.0)  # additional direct charge
    stats = {p: s for p, s in prof._stats.items() if p == ("outer",)}
    s = stats[("outer",)]
    assert s.exclusive == pytest.approx(5.0)
    assert s.inclusive == pytest.approx(6.0)


def test_charge_into_never_entered_parent():
    """Charging under a charged_region whose parent never ran with the
    wall clock still rolls the child's time into the parent's inclusive."""
    prof = TinyProfiler()
    with prof.charged_region("FillPatch"):
        prof.charge("ParallelCopy", 2.0)
        with prof.charged_region("FillBoundary"):
            prof.charge("FillBoundary_nowait", 0.5)
            prof.charge("FillBoundary_finish", 0.25)
    assert prof.total("FillPatch") == pytest.approx(2.75)
    assert prof.total("FillBoundary") == pytest.approx(0.75)
    # the never-entered parents have zero calls but carry inclusive time
    fp = prof._stats[("FillPatch",)]
    assert fp.calls == 0
    assert fp.inclusive == pytest.approx(2.75)
    assert fp.exclusive == pytest.approx(0.0)


def test_exclusive_invariant_excl_is_incl_minus_children():
    prof = TinyProfiler()
    with prof.charged_region("outer"):
        prof.charge("a", 1.0)
        prof.charge("b", 2.0)
    prof.charge("outer", 10.0)  # direct exclusive work
    s = prof._stats[("outer",)]
    assert s.inclusive == pytest.approx(13.0)
    assert s.child_time == pytest.approx(3.0)
    assert s.exclusive == pytest.approx(s.inclusive - s.child_time)
    assert s.exclusive >= 0.0
    # every region in the table satisfies the invariant
    for stats in prof._stats.values():
        assert stats.exclusive == pytest.approx(
            stats.inclusive - stats.child_time)
        assert stats.exclusive >= -1e-12


def test_report_orders_siblings_by_inclusive_time():
    prof = TinyProfiler()
    prof.charge("Small", 1.0)
    prof.charge("Large", 5.0)
    prof.charge("Medium", 3.0)
    with prof.charged_region("Large"):
        prof.charge("child_light", 0.5)
        prof.charge("child_heavy", 4.0)
    lines = prof.report().splitlines()
    order = [l.split()[0] for l in lines[2:]]
    assert order.index("Large") < order.index("Medium") < order.index("Small")
    # children appear indented under their parent, heaviest first
    assert order.index("Large") < order.index("child_heavy") \
        < order.index("child_light")
    heavy_line = next(l for l in lines if "child_heavy" in l)
    assert heavy_line.startswith("  ")


def test_listener_callbacks_fire_in_order():
    events = []

    class Spy:
        def on_enter(self, path):
            events.append(("enter", path))

        def on_exit(self, path, dt):
            events.append(("exit", path))

        def on_charge(self, path, seconds, calls):
            events.append(("charge", path, seconds))

    prof = TinyProfiler()
    prof.add_listener(Spy())
    with prof.region("A"):
        prof.charge("B", 1.5)
    assert events == [
        ("enter", ("A",)),
        ("charge", ("A", "B"), 1.5),
        ("exit", ("A",)),
    ]


def test_enter_leave_charge_the_callers_record():
    """``enter``/``leave`` time nothing themselves: every region of the
    nest is charged the caller's seconds, regions opened inside nest
    under it, and listeners get one ``on_span`` per region, outermost
    first."""
    spans = []

    class Spy:
        def on_span(self, path, t0, seconds):
            spans.append((path, t0, seconds))

    prof = TinyProfiler()
    prof.add_listener(Spy())
    for _ in range(2):
        prof.enter(("A", "B"))
        with prof.region("C"):
            pass
        prof.leave(2, 10.0, 0.5)
    assert prof._stack == []
    assert prof.total("A") == prof.total("B") == 1.0
    assert prof.calls("A") == prof.calls("B") == 2
    assert set(profiler_children(prof, "B")) == {"C"}
    assert prof._stats[("A",)].child_time == 1.0
    assert spans[:2] == [(("A",), 10.0, 0.5), (("A", "B"), 10.0, 0.5)]


def test_report_names_every_region():
    prof = TinyProfiler()
    with prof.region("A"):
        with prof.region("B"):
            pass
    text = prof.report()
    assert "A" in text and "B" in text
