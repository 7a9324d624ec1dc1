"""Span self time and closure on a synthetic call tree, and that every
wrapped callable still exists in the tree this benchmark measures."""

import math

import pytest

import estimate
import spans


class FakeClock:
    """A clock that only moves when the 'program' says it worked."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


@pytest.fixture
def tree():
    """step -> watchdog -> { launch -> body -> bc_fill, rhs -> launch -> body }
    plus, on step 0 only, a regrid that runs interp under its tagging."""
    clock = FakeClock()
    rec = spans.Recorder(clock)

    def launch(_backend, _name, body, _npoints, spec=None):
        clock.work(0.25)          # launch overhead before the body
        out = body()
        clock.work(0.25)          # ... and after it
        return out

    parallel_for = rec.wrap_parallel_for(launch)

    class Spec:
        def __init__(self, cls):
            self.kernel_class = cls

    def bc_fill():
        clock.work(1.0)
    bc_fill = rec.wrap(bc_fill, "cases.bc_fill")

    def interp():
        clock.work(2.0)
        parallel_for(None, "Interp", lambda: clock.work(1.0), 10,
                     Spec("interp"))
    interp = rec.wrap(interp, "amr.interp")

    def rhs(fail):
        clock.work(0.5)

        def body():
            clock.work(4.0)
            if fail:
                raise FloatingPointError("blown up")
        parallel_for(None, "WENOx", body, 100, Spec("flux"))
    rhs = rec.wrap(rhs, "kernels.rhs")

    def error_est():
        clock.work(0.5)
        interp()
    error_est = rec.wrap(error_est, "amr.regrid_tag")

    def regrid():
        clock.work(1.0)
        error_est()
    regrid = rec.wrap(regrid, "amr.regrid")

    def watchdog(fail):
        clock.work(0.125)
        parallel_for(None, "BC_fill", lambda: (clock.work(0.5), bc_fill()),
                     7, Spec("fillpatch"))
        interp()
        rhs(fail)
    watchdog = rec.wrap(watchdog, "resilience.watchdog")

    def step(k, fail=False):
        clock.work(0.0625)
        if k == 0:
            regrid()
        watchdog(fail)
    step = rec.wrap(step, spans.ROOT_SPAN)
    return rec, step, interp


def _by_name(led):
    """Per-step self time summed by the span name it is credited to."""
    out = {name: [0.0] * len(led["self_s"]) for name in led["names"]}
    for k, (selfs, credit) in enumerate(zip(led["self_s"], led["credit"])):
        for s, j in zip(selfs, credit):
            out[led["names"][j]][k] += s
    return out


def _root_durations(rec):
    return [end - start for name, start, end, *_ in rec.spans
            if name == spans.ROOT_SPAN]


def test_self_times_close_and_land_on_the_right_layer(tree):
    rec, step, interp = tree
    interp()                    # set-up work: outside any step, left out
    step(0)
    step(1)
    led = spans.ledger(rec.spans, 2)
    self_s, calls = _by_name(led), led["calls"]
    for k, root in enumerate(_root_durations(rec)):
        assert math.isclose(sum(led["self_s"][k]), root, rel_tol=1e-12)
    # Regrid is inclusive: 1.0 own + tagging (0.5 own + interp 2.0 +
    # launch 0.5 + body 1.0), all on step 0, none of it credited to interp
    assert self_s["amr.regrid"] == [1.0, 0.0]
    assert self_s["amr.regrid_tag"] == [4.0, 0.0]
    # outside Regrid the body goes to the issuer, the overhead to backend
    assert self_s["amr.interp"] == [3.0, 3.0]
    assert self_s["kernels.rhs"] == [4.5, 4.5]
    assert self_s["cases.bc_fill"] == [1.0, 1.0]
    assert self_s["backend.launch"] == [1.5, 1.5]
    # the BC_fill body's own 0.5 s belongs to the watchdog that issued it
    assert self_s["resilience.watchdog"] == [0.625, 0.625]
    assert self_s["core.step"] == [0.0625, 0.0625]
    assert calls["amr.interp"] == [2, 1]
    assert calls["launch.interp"] == [2, 1]
    assert led["points"]["launch.flux"] == [100, 100]
    assert "body" not in calls


def test_wrappers_survive_exceptions(tree):
    rec, step, _ = tree
    with pytest.raises(FloatingPointError):
        step(0, fail=True)
    step(1)
    assert rec._stack == []
    assert all(end >= start for _, start, end, *_ in rec.spans)
    led = spans.ledger(rec.spans, 2)
    assert math.isclose(sum(led["self_s"][0]), _root_durations(rec)[0],
                        rel_tol=1e-12)
    self_s = _by_name(led)
    assert self_s["kernels.rhs"] == [4.5, 4.5]
    # the launch that raised never got to its trailing overhead
    assert self_s["backend.launch"] == [1.25, 1.5]


def test_every_wrapped_callable_resolves_on_this_tree():
    from repro.cases.dmr import DoubleMachReflection

    missing, uninstall = spans.install(spans.Recorder(),
                                       DoubleMachReflection)
    try:
        assert missing == []
        from repro.core.crocco import Crocco
        assert hasattr(Crocco.step, "__wrapped__")
    finally:
        uninstall()
    assert not hasattr(Crocco.step, "__wrapped__")


def test_a_missing_callable_nulls_its_metrics_and_warns_once(
        monkeypatch, capsys):
    monkeypatch.setitem(spans.TARGETS, "amr.interp",
                        [("repro.amr.fillpatch", "FillPatchOp.gone")])
    missing, uninstall = spans.install(spans.Recorder())
    uninstall()
    assert missing == ["amr.interp"]
    warnings = capsys.readouterr().err.strip().splitlines()
    assert len(warnings) == 1 and "FillPatchOp.gone" in warnings[0]

    run = {
        "walls": [1.0, 1.0], "cells": [10, 10], "boxes": [1, 1],
        "segments": [[0.125, 0.875], [0.125, 0.875]],
        "counts": {"launches": {"flux": {"launches": 2, "points": 20}},
                   "messages": {}, "tasks": 2, "regrids": 0,
                   "step_retries": 0, "scratch_hit_rate": 0.0},
        "trace": {"missing": missing, "names": ["core.step", "kernels.rhs"],
                  "credit": [[0, 1], [0, 1]],
                  "calls": {"kernels.rhs": [3, 3]}, "points": {}},
    }
    layers = estimate.per_layer([run], [run])
    assert layers["amr.interp_s"] is None
    assert layers["amr.interp_calls"] is None
    assert layers["amr.fillpatch_frac"] is None
    assert layers["kernels.rhs_s"] == 0.875
    assert layers["core.closure_frac"] == 0.875
    # the end-to-end side never looks at the trace
    assert estimate.end_to_end([run | {"setup_s": 1.0, "run_s": 3.0,
                                       "peak_rss_mb": 50.0}])["step_s"] == 1.0
