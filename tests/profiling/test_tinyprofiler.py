"""Tests for the TinyProfiler region timers."""

import time

import pytest

from repro.observability.tracer import Tracer
from repro.profiling.tinyprofiler import TinyProfiler
from tests.conftest import profiler_children, trace_events


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


def timed(prof, names, seconds):
    """Open the nest ``names`` and close it with ``seconds`` of the
    caller's own measurement (a scheduled task's record)."""
    prof.enter(names)
    prof.leave(len(names), 0.0, seconds)


def test_exclusive_time():
    prof = TinyProfiler()
    prof.enter(("outer",))
    timed(prof, ("inner",), 1.0)
    prof.leave(1, 0.0, 6.0)
    s = prof._stats[("outer",)]
    assert s.exclusive == pytest.approx(5.0)
    assert s.inclusive == pytest.approx(6.0)


def test_exclusive_invariant_excl_is_incl_minus_children():
    prof = TinyProfiler()
    prof.enter(("outer",))
    timed(prof, ("a",), 1.0)
    timed(prof, ("b", "c"), 2.0)
    prof.leave(1, 0.0, 13.0)
    s = prof._stats[("outer",)]
    assert s.inclusive == pytest.approx(13.0)
    assert s.child_time == pytest.approx(3.0)
    assert s.exclusive == pytest.approx(s.inclusive - s.child_time)
    # a region's child time is its direct children's only
    assert prof._stats[("outer", "b")].child_time == pytest.approx(2.0)
    # every region in the table satisfies the invariant
    for stats in prof._stats.values():
        assert stats.exclusive == pytest.approx(
            stats.inclusive - stats.child_time)
        assert stats.exclusive >= -1e-12


def test_report_orders_siblings_by_inclusive_time():
    prof = TinyProfiler()
    timed(prof, ("Small",), 1.0)
    timed(prof, ("Medium",), 3.0)
    prof.enter(("Large",))
    timed(prof, ("child_light",), 0.5)
    timed(prof, ("child_heavy",), 4.0)
    prof.leave(1, 0.0, 5.0)
    lines = prof.report().splitlines()
    order = [l.split()[0] for l in lines[2:]]
    assert order.index("Large") < order.index("Medium") < order.index("Small")
    # children appear indented under their parent, heaviest first
    assert order.index("Large") < order.index("child_heavy") \
        < order.index("child_light")
    heavy_line = next(l for l in lines if "child_heavy" in l)
    assert heavy_line.startswith("  ")


def test_enter_leave_charge_the_callers_record():
    """``enter``/``leave`` time nothing themselves: every region of the
    nest is charged the caller's seconds, regions opened inside nest
    under it, and a bound tracer gets one span per region at the caller's
    clock reading, outermost first."""
    prof, tracer = TinyProfiler(), Tracer()
    prof.tracer = tracer
    t0 = time.perf_counter()
    for _ in range(2):
        prof.enter(("A", "B"))
        with prof.region("C"):
            pass
        prof.leave(2, t0, 0.5)
    assert prof._stack == []
    assert prof.total("A") == prof.total("B") == 1.0
    assert prof.calls("A") == prof.calls("B") == 2
    assert set(profiler_children(prof, "B")) == {"C"}
    assert prof._stats[("A",)].child_time == 1.0
    spans = [(e["args"]["path"], e["ts"], e["dur"])
             for e in trace_events(tracer)]
    assert spans[:3] == [("A/B/C", spans[0][1], spans[0][2]),
                         ("A", tracer.at_us(t0), 0.5e6),
                         ("A/B", tracer.at_us(t0), 0.5e6)]


def test_report_names_every_region():
    prof = TinyProfiler()
    with prof.region("A"):
        with prof.region("B"):
            pass
    text = prof.report()
    assert "A" in text and "B" in text
