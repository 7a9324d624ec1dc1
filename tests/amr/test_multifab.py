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
    assert mf.buffer.nbytes == 16 * 2 * 10 * 10 * 8


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


def test_a_level_is_one_buffer_carved_into_group_arrays():
    """One flat buffer; one C-contiguous ``(ncomp, B, *grown)`` array per
    group, in group order; ``fab(i).data`` the view ``[:, b]`` of its
    group's array; :meth:`MultiFab.cells` the flat offsets of any cells."""
    ba = BoxArray([Box((0, 0), (3, 3)), Box((4, 0), (9, 3)),
                   Box((0, 4), (3, 7)), Box((4, 4), (9, 7))])
    mf = MultiFab(ba, DistributionMapping.make(ba, 2), 2, 1,
                  groups=[(0, 2), (1, 3)])
    assert [a.shape for a in mf.arrays] == [(2, 2, 6, 6), (2, 2, 8, 6)]
    assert all(a.flags.c_contiguous and np.shares_memory(a, mf.buffer)
               for a in mf.arrays)
    assert mf.buffer.size == sum(a.size for a in mf.arrays)
    for g, ids in enumerate(mf.groups):
        for b, i in enumerate(ids):
            assert np.shares_memory(mf.fab(i).data, mf.arrays[g][:, b])
            mf.fab(i).data[...] = np.arange(mf.fab(i).data.size).reshape(
                mf.fab(i).data.shape) + 1000 * i
    for i, fab in mf:
        cell = np.arange(fab.data[0].size)
        cells = mf.cells(np.full_like(cell, i), cell)
        assert (cells.take(mf.buffer) == fab.data.reshape(2, -1)).all()
        cells.put(mf.buffer, -1.0 - cells.take(mf.buffer))
        assert (fab.data < 0).all()
    # cells of boxes of different group sizes keep every component's offset
    mixed = mf.cells(np.array([0, 1]), np.array([7, 7]))
    assert mixed.step is None and mixed.index.shape == (2, 2)
    assert (mixed.take(mf.buffer) == np.stack(
        [mf.fab(i).data.reshape(2, -1)[:, 7] for i in (0, 1)], axis=1)).all()
    # of one group, component 0's only
    same = mf.cells(np.array([0, 2]), np.array([7, 7]), range(1, 2))
    assert same.step == mf.cstride[0] and same.index.shape == (2,)
    assert (same.take(mf.buffer)
            == [[mf.fab(0).data[1].flat[7], mf.fab(2).data[1].flat[7]]]).all()

