"""Tests for DistributionMapping strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import DistributionMapping


def make_ba(n=8):
    return BoxArray.from_domain(Box((0, 0, 0), (8 * n - 1, 8 * n - 1, 7)), 8, 8)


def test_roundrobin():
    ba = make_ba(2)
    dm = DistributionMapping.make(ba, 3, "roundrobin")
    assert dm.ranks() == tuple(i % 3 for i in range(len(ba)))


def test_every_rank_in_range():
    ba = make_ba(4)
    for strat in ("sfc", "knapsack", "roundrobin"):
        dm = DistributionMapping.make(ba, 7, strat)
        assert all(0 <= r < 7 for r in dm)
        assert len(dm) == len(ba)


def test_sfc_balances_equal_weights():
    ba = make_ba(4)  # 16 equal boxes in x-y, 16 total
    dm = DistributionMapping.make(ba, 4, "sfc")
    loads = dm.load_per_rank(ba)
    assert loads.sum() == ba.num_pts()
    # max/mean load
    assert loads.max() / loads.mean() < 1.3


def test_sfc_uses_all_ranks_when_possible():
    ba = make_ba(4)
    dm = DistributionMapping.make(ba, 8, "sfc")
    assert len(set(dm.ranks())) == 8


def test_knapsack_optimal_for_unequal_weights():
    ba = BoxArray([Box((0, 0), (7, 7)), Box((8, 0), (15, 7)),
                   Box((0, 8), (15, 15))])  # weights 64, 64, 128
    dm = DistributionMapping.make(ba, 2, "knapsack")
    loads = dm.load_per_rank(ba)
    assert sorted(loads.tolist()) == [128, 128]


def test_sfc_locality():
    """Adjacent boxes along the curve land on the same or adjacent rank."""
    ba = make_ba(8)
    dm = DistributionMapping.make(ba, 16, "sfc")
    # each rank's boxes form a contiguous run in morton order: ranks seen
    # in morton order should be non-decreasing
    from repro.amr.morton import morton_order

    centers = ba.centers()
    order = morton_order(centers - centers.min(axis=0))
    seq = [dm[i] for i in order]
    assert seq == sorted(seq)


def test_invalid_inputs():
    ba = make_ba(2)  # 4 boxes
    with pytest.raises(ValueError):
        DistributionMapping.make(ba, 0)
    with pytest.raises(ValueError):
        DistributionMapping.make(ba, 2, "magic")
    with pytest.raises(ValueError):
        DistributionMapping.make(ba, 2, weights=[1.0])


def test_explicit_weights_respected():
    ba = make_ba(2)
    w = np.ones(len(ba))
    w[0] = 1000.0
    dm = DistributionMapping.make(ba, 2, "knapsack", weights=w)
    heavy_rank = dm[0]
    # the heavy box's rank should get few other boxes
    ranks = dm.ranks()
    assert ranks.count(heavy_rank) <= ranks.count(1 - heavy_rank)


@settings(max_examples=20)
@given(st.integers(1, 64), st.integers(1, 6))
def test_sfc_never_strands_boxes(nboxes_side, nranks):
    domain = Box((0, 0), (8 * nboxes_side - 1, 7))
    ba = BoxArray.from_domain(domain, 8, 8)
    dm = DistributionMapping.make(ba, nranks, "sfc")
    loads = dm.load_per_rank(ba)
    assert loads.sum() == ba.num_pts()
    # no rank exceeds twice the fair share when there are enough boxes
    if len(ba) >= nranks:
        assert len(set(dm.ranks())) == nranks
