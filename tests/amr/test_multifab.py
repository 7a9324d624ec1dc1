"""Tests for MultiFab container operations and accounted reductions."""

import numpy as np
import pytest

from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import DistributionMapping
from repro.amr.multifab import MultiFab
from repro.mpi.comm import Communicator


def make_mf(nranks=4, ncomp=2, ngrow=1):
    ba = BoxArray.from_domain(Box((0, 0), (31, 31)), 8, 8)
    comm = Communicator(nranks, ranks_per_node=2)
    dm = DistributionMapping.make(ba, nranks, "sfc")
    return MultiFab(ba, dm, ncomp, ngrow, comm)


def test_construction():
    mf = make_mf()
    assert len(mf) == 16
    assert mf.ba.num_pts() == 32 * 32
    assert sum(fab.nbytes() for _, fab in mf) == 16 * 2 * 10 * 10 * 8


def test_layout_mismatch_rejected():
    ba = BoxArray.from_domain(Box((0, 0), (15, 15)), 8, 8)
    dm = DistributionMapping.make(ba, 2)
    ba2 = BoxArray.from_domain(Box((0, 0), (31, 31)), 8, 8)
    with pytest.raises(ValueError):
        MultiFab(ba2, dm, 1)


def test_set_val_and_iteration():
    mf = make_mf()
    mf.set_val(3.0)
    for i, fab in mf:
        assert np.all(fab.data == 3.0)


def test_global_reductions_correct():
    mf = make_mf()
    for i, fab in mf:
        fab.valid()[...] = float(i)
    assert mf.min() == 0.0
    assert mf.max() == float(len(mf) - 1)


def test_reductions_record_tree_messages():
    mf = make_mf(nranks=4)
    mf.comm.ledger.clear()
    mf.min()
    # binomial tree over 4 ranks: 2 reduce rounds (2+1 msgs) + broadcast (3)
    assert mf.comm.ledger.count("reduce") == 6


def test_contains_nan():
    mf = make_mf()
    assert not mf.contains_nan()
    mf.fab(3).data[0, 0, 0] = np.nan
    assert mf.contains_nan()
