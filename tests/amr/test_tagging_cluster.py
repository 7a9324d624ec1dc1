"""Tests for error tagging and Berger-Rigoutsos clustering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.boundary import fill_boundary_nowait
from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.cluster import buffer_tags, cluster_tags
from repro.amr.distribution import DistributionMapping
from repro.amr.multifab import MultiFab
from repro.amr.tagging import tag_density_gradient, undivided_gradient_magnitude
from repro.mpi.comm import Communicator
from tests.conftest import no_overlaps


def make_mf(field_fn, ncomp=1, ngrow=1):
    domain = Box((0, 0), (31, 31))
    ba = BoxArray.from_domain(domain, 16, 8)
    mf = MultiFab(ba, DistributionMapping.make(ba, 1), ncomp, ngrow, Communicator(1, 1))
    # initialize the whole grown region (plays the role of BC_Fill at the
    # physical boundary), then exchange interior ghosts
    for i, fab in mf:
        b = fab.grown_box()
        ii = np.arange(b.lo[0], b.hi[0] + 1)[:, None]
        jj = np.arange(b.lo[1], b.hi[1] + 1)[None, :]
        for c in range(ncomp):
            fab.view(b)[c] = field_fn(ii, jj, c)
    fill_boundary_nowait(mf).finish()
    return mf, domain


def test_gradient_magnitude_of_step():
    arr = np.zeros((8, 8))
    arr[4:, :] = 1.0
    g = undivided_gradient_magnitude(arr)
    assert np.all(g[3:5, :] == 1.0)
    assert np.all(g[:3, :] == 0.0)
    assert np.all(g[5:, :] == 0.0)


def test_gradient_magnitude_smooth_linear():
    arr = np.outer(np.arange(8.0), np.ones(8))
    g = undivided_gradient_magnitude(arr)
    assert np.allclose(g, 1.0)


def test_tag_density_gradient_finds_shock():
    mf, domain = make_mf(lambda i, j, c: np.where(i >= 16, 10.0, 1.0))
    cells = np.argwhere(tag_density_gradient(mf, 0, 0.5, domain))
    assert len(cells) > 0
    assert set(cells[:, 0].tolist()) <= {15, 16}


def test_no_tags_empty_array():
    mf, domain = make_mf(lambda i, j, c: np.zeros_like(i, dtype=float))
    assert np.argwhere(tag_density_gradient(mf, 0, 1.0, domain)).shape == (0, 2)


def test_buffer_tags_grows_and_clips():
    domain = Box((0, 0), (31, 31))
    tags = np.array([[0, 0], [16, 16]])
    out = np.argwhere(buffer_tags(tags, 2, domain))
    assert [0, 0] in out.tolist()
    assert [-1, 0] not in out.tolist()  # clipped at domain edge
    assert [18, 18] in out.tolist()
    # corner tag buffered: 3x3 region (clipped), center: 5x5
    assert len(out) == 9 + 25


def test_cluster_covers_all_tags():
    domain = Box((0, 0), (63, 63))
    rng = np.random.default_rng(3)
    tags = rng.integers(10, 50, size=(200, 2))
    ba = cluster_tags(buffer_tags(tags, 0, domain), domain, blocking_factor=4,
                      max_grid_size=32)
    for t in tags:
        assert ba.contains(Box(tuple(t), tuple(t))), f"tag {t} uncovered"


def test_cluster_respects_constraints():
    domain = Box((0, 0), (63, 63))
    rng = np.random.default_rng(5)
    tags = rng.integers(0, 64, size=(100, 2))
    ba = cluster_tags(buffer_tags(tags, 0, domain), domain, blocking_factor=8,
                      max_grid_size=16)
    assert no_overlaps(ba)
    for b in ba:
        assert max(b.size()) <= 16
        assert domain.contains(b)


def test_cluster_separates_distant_clusters():
    domain = Box((0, 0), (127, 127))
    a = np.array([[i, j] for i in range(4, 10) for j in range(4, 10)])
    b = np.array([[i, j] for i in range(100, 106) for j in range(100, 106)])
    tags = np.concatenate([a, b])
    ba = cluster_tags(buffer_tags(tags, 0, domain), domain, blocking_factor=4,
                      max_grid_size=64)
    # two well-separated clusters should not be covered by one huge box
    assert ba.num_pts() < domain.num_pts() // 4


def test_cluster_empty():
    ba = cluster_tags(np.zeros((32, 32), dtype=bool), Box((0, 0), (31, 31)))
    assert len(ba) == 0


def test_cluster_single_tag_aligned():
    domain = Box((0, 0), (31, 31))
    ba = cluster_tags(buffer_tags(np.array([[13, 22]]), 0, domain), domain,
                      blocking_factor=8, max_grid_size=32)
    assert len(ba) == 1
    b = ba[0]
    assert b.contains(Box((13, 22), (13, 22)))
    for d in range(2):
        assert b.lo[d] % 8 == 0
        assert b.size()[d] % 8 == 0


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)),
                min_size=1, max_size=80, unique=True))
def test_cluster_property_all_tags_covered_disjoint(tag_list):
    domain = Box((0, 0), (63, 63))
    tags = np.array(tag_list)
    ba = cluster_tags(buffer_tags(tags, 0, domain), domain, blocking_factor=4,
                      max_grid_size=32)
    assert no_overlaps(ba)
    for t in tags:
        assert ba.contains(Box(tuple(t), tuple(t)))
