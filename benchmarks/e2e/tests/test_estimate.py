"""The estimator on synthetic timings with injected one-sided noise, and
the compare verdicts."""

import random
from statistics import median

import estimate


def _run(segments, cells, setup_s=1.0, other_s=2.0, rss=100.0, sha="a",
         failed=0):
    """A child result whose steps are the given lists of segments."""
    n = len(segments)
    walls = [sum(segs) for segs in segments]
    return {
        "steps": n, "failed": failed, "error": None, "walls": walls,
        "segments": segments, "cells": cells, "boxes": [4] * n,
        "setup_s": setup_s, "run_s": other_s + sum(walls),
        "peak_rss_mb": rss,
        "check": {"sha256": sha, "l2_drift": None, "reference": "none"},
        "counts": {"launches": {"flux": {"launches": 6 * n,
                                         "points": 600 * n}},
                   "messages": {"fillboundary": [2 * n, 64 * n]},
                   "tasks": 10 * n, "regrids": 0, "step_retries": 0,
                   "scratch_hit_rate": 0.0},
    }


FLOOR = [[0.125, 0.25, 0.125], [0.0625, 0.25, 0.0625, 0.125],
         [0.125, 0.125, 0.125], [0.25, 0.5], [0.125, 0.0625, 0.0625]]
CELLS = [1000, 1000, 1200, 1200, 1200]


def _noisy(rng, clean_in_repeat, r):
    """FLOOR with one-sided noise on every segment but the ones whose
    turn it is to run clean in repeat ``r``."""
    out, j = [], 0
    for segs in FLOOR:
        step = []
        for s in segs:
            step.append(s if j % clean_in_repeat == r
                        else s * (1 + rng.uniform(0.05, 1.0)))
            j += 1
        out.append(step)
    return out


def test_noise_is_removed_although_no_whole_step_ever_ran_clean():
    rng = random.Random(7)
    reps = [_noisy(rng, 3, r) for r in range(3)]
    runs = [_run(segs, CELLS) for segs in reps]
    floor = [sum(segs) for segs in FLOOR]
    assert estimate.floor_steps(runs) == floor
    e2e = estimate.end_to_end(runs)
    assert e2e["step_s"] == median(floor)
    assert e2e["us_per_cell_update"] == 1e6 * sum(floor) / sum(CELLS)
    # the minimum over whole steps, let alone a median, stays far off
    whole = [min(col) for col in zip(*(r["walls"] for r in runs))]
    assert min(w / f for w, f in zip(whole, floor)) > 1.05


def test_estimate_never_undershoots_and_tightens_with_repeats():
    floor = [sum(segs) for segs in FLOOR]

    def estimate_with(nrep, seed):
        rng = random.Random(seed)
        reps = [[[s * (1 + (rng.random() < 0.5) * rng.expovariate(2.0))
                  for s in segs] for segs in FLOOR] for _ in range(nrep)]
        return estimate.floor_steps([_run(segs, CELLS) for segs in reps])

    for seed in range(20):
        few, many = estimate_with(2, seed), estimate_with(6, seed)
        assert all(w >= f for w, f in zip(few, floor))
        assert all(w >= f for w, f in zip(many, floor))
        assert sum(many) <= sum(few)
    assert sum(estimate_with(6, 99)) < 1.02 * sum(floor)


def test_a_step_that_did_not_repeat_is_taken_from_the_first_run_alone():
    a = _run([[1.0, 2.0], [1.0, 1.0]], [10, 10])
    b = _run([[2.0, 1.0], [0.5, 0.5, 0.5]], [10, 10])
    assert estimate.floor_steps([a, b]) == [2.0, 2.0]


def test_run_level_metrics():
    runs = [_run([[1.0, 3.0]], [10], setup_s=s, other_s=o, rss=m)
            for s, o, m in ((0.9, 2.0, 100.0), (0.7, 1.5, 103.0),
                            (0.8, 3.0, 101.0))]
    runs[1]["segments"] = [[2.0, 2.0]]      # floor of the step: 1 + 2
    runs[1]["run_s"] = 1.5 + 4.0
    e2e = estimate.end_to_end(runs)
    assert e2e["setup_s"] == 0.7            # fastest set-up of any repeat
    assert e2e["peak_rss_mb"] == 103.0      # max over repeats
    assert e2e["run_s"] == 1.5 + 3.0        # fastest non-step part + floor


def test_repeat_spread_is_the_median_relative_range():
    walls = [[1.0, 2.0, 4.0], [1.5, 2.2, 4.0], [1.2, 2.0, 5.0]]
    assert estimate.repeat_spread(walls) == median([0.5, 0.1, 0.25])
    assert estimate.repeat_spread(walls[:1]) == 0.0


def test_failures_count_steps_and_demand_bitwise_repeats():
    ok = estimate.failures([_run([[1.0], [1.0]], [5, 5])] * 2)
    assert (ok["attempted"], ok["failed"], ok["correct"]) == (4, 0, True)
    retried = estimate.failures([_run([[1.0], [1.0]], [5, 5], failed=1)] * 2)
    assert retried["failed_frac"] == 0.5 and not retried["correct"]
    # two repeats that end in different states fail every step
    diverged = estimate.failures([_run([[1.0]], [5], sha="a"),
                                  _run([[1.0]], [5], sha="b")])
    assert diverged["failed"] == diverged["attempted"] == 2
    # ... and so do two repeats that counted different work
    other = _run([[1.0]], [5])
    other["counts"]["tasks"] += 1
    assert not estimate.failures([_run([[1.0]], [5]),
                                  other])["deterministic"]


def test_verdict_respects_direction_and_bound():
    v = estimate.verdict
    assert v(1.0, 1.05, "lower", 0.08) == "same"
    assert v(1.0, 1.09, "lower", 0.08) == "worse"
    assert v(1.0, 0.90, "lower", 0.08) == "better"
    assert v(1.0, 0.90, "higher", 0.08) == "worse"
    assert v(1.0, 1.10, "higher", 0.08) == "better"
    assert v(2.0, 2.0, "lower", 0.0) == "same"
    assert v(0.0, 0.1, "lower", 0.1) == "worse"
    assert v(0.0, 0.1, "higher", 0.1) == "better"
