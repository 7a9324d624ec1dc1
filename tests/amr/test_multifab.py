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
    assert mf.num_pts() == 32 * 32
    assert mf.nbytes() == 16 * 2 * 10 * 10 * 8


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


def test_like():
    mf = make_mf()
    other = MultiFab.like(mf, ncomp=5)
    assert other.ncomp == 5
    assert other.ba is mf.ba
    assert other.comm is mf.comm


def test_copy_values_from():
    a = make_mf()
    b = MultiFab.like(a)
    a.set_val(4.0)
    b.copy_values_from(a)
    assert b.fab(0).data[0, 1, 1] == 4.0


def test_copy_values_layout_check():
    a = make_mf()
    ba = BoxArray.from_domain(Box((0, 0), (15, 15)), 8, 8)
    dm = DistributionMapping.make(ba, 2)
    c = MultiFab(ba, dm, 2, 1)
    with pytest.raises(ValueError):
        a.copy_values_from(c)


def test_saxpy_and_scale():
    a = make_mf()
    b = MultiFab.like(a)
    a.set_val(1.0)
    b.set_val(2.0)
    a.saxpy(3.0, b)
    assert a.fab(0).valid()[0, 0, 0] == 7.0
    a.scale(0.5)
    assert a.fab(0).valid()[0, 0, 0] == 3.5


def test_global_reductions_correct():
    mf = make_mf()
    for i, fab in mf:
        fab.valid()[...] = float(i)
    assert mf.min() == 0.0
    assert mf.max() == float(len(mf) - 1)
    expected_sum = sum(i * mf.ba[i].num_pts() for i in range(len(mf)))
    assert mf.sum(comp=0) == pytest.approx(expected_sum)


def test_reductions_record_tree_messages():
    mf = make_mf(nranks=4)
    mf.comm.ledger.clear()
    mf.min()
    # binomial tree over 4 ranks: 2 reduce rounds (2+1 msgs) + broadcast (3)
    assert mf.comm.ledger.count("reduce") == 6


def test_norm2():
    mf = make_mf(ncomp=1)
    mf.set_val(2.0)
    assert mf.norm2() == pytest.approx(np.sqrt(4.0 * mf.num_pts()))


def test_contains_nan():
    mf = make_mf()
    assert not mf.contains_nan()
    mf.fab(3).data[0, 0, 0] = np.nan
    assert mf.contains_nan()


def test_apply():
    mf = make_mf(ncomp=1, ngrow=1)
    mf.set_val(1.0)

    def double(arr):
        arr *= 2.0

    mf.apply(double)
    assert mf.fab(0).valid()[0, 0, 0] == 2.0
    # ghosts untouched when include_ghosts=False
    assert mf.fab(0).data[0, 0, 0] == 1.0
