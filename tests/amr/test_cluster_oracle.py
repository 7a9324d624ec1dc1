"""Tagging, buffering and clustering on the level mask give, box for box
and in the same order, what the tag-list builders they replaced give
(``tests/amr/cluster_oracle.py``)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import cluster
from repro.amr.amrcore import AmrConfig, AmrCore
from repro.amr.box import Box
from repro.amr.boxarray import BoxArray, boxes_of, chop, grow, lohi_of
from repro.amr.distribution import DistributionMapping
from repro.amr.geometry import Geometry
from repro.amr.multifab import MultiFab
from repro.amr.tagging import tag_density_gradient
from repro.backend import make_exec_backend, use_backend
from repro.kernels.device import GpuDevice
from repro.mpi.comm import Communicator
from tests.amr import cluster_oracle as oracle


@st.composite
def tag_sets(draw):
    """A domain (2-D or 3-D, its low corner anywhere on the blocking
    factor) and a set of tagged cells in it: scattered points, noise or a
    shock-like band, with or without every corner of the domain."""
    dim = draw(st.sampled_from([2, 3]))
    bf = draw(st.sampled_from([1, 2, 4]))
    most = 40 if dim == 2 else 12
    size = [bf * draw(st.integers(1, most // bf)) for _ in range(dim)]
    lo = [bf * draw(st.integers(-2, 2)) for _ in range(dim)]
    domain = Box(tuple(lo), tuple(l + n - 1 for l, n in zip(lo, size)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    kind = draw(st.sampled_from(["points", "noise", "band"]))
    if kind == "points":
        mask = np.zeros(size, dtype=bool)
        mask.flat[rng.choice(mask.size, draw(st.integers(1, 40)))] = True
    elif kind == "noise":
        mask = rng.random(size) < draw(st.sampled_from([0.05, 0.3, 0.8]))
    else:
        at = np.indices(size)
        line = at[0] - rng.uniform(-1, 1) * at[1] - rng.uniform(0, size[0])
        mask = np.abs(line) <= draw(st.integers(0, 3))
    if draw(st.booleans()):
        mask[tuple(np.indices((2,) * dim).reshape(dim, -1)
                   * (np.array(size) - 1)[:, None])] = True
    cells = np.argwhere(mask) + np.array(lo)
    return domain, cells, bf


@settings(max_examples=120, deadline=None)
@given(tag_sets(), st.sampled_from([0, 1, 2]), st.sampled_from([0.5, 0.7, 0.9, 1.0]),
       st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 2, 3]),
       st.integers(0, 3))
def test_mask_clustering_equals_the_tag_list_builders(
        drawn, n_buf, grid_eff, chunks, min_size, n_proper):
    domain, cells, bf = drawn
    params = dict(grid_eff=grid_eff, blocking_factor=bf,
                  max_grid_size=bf * chunks, min_size=min_size)
    if not len(cells):
        return
    want = oracle.buffer_tags(cells, n_buf, domain)
    mask = cluster.buffer_tags(cells, n_buf, domain)
    assert np.array_equal(np.argwhere(mask) + np.array(domain.lo.tup()),
                          want[np.lexsort(want.T[::-1])])
    expected = oracle.cluster_tags(want, domain, **params)
    got = cluster.cluster_tags(mask, domain, **params)
    assert np.array_equal(got.lohi, expected.lohi)
    # proper nesting of those grids in a coverage clustered from a wider
    # buffer of the same tags
    cov = cluster.cluster_tags(cluster.buffer_tags(cells, n_buf + 2, domain),
                               domain, blocking_factor=bf,
                               max_grid_size=4 * bf)
    amr = AmrCore(Geometry(domain, [0.0] * domain.dim, [1.0] * domain.dim),
                  AmrConfig(max_level=2, n_proper=n_proper))
    amr.box_arrays[1], amr.geoms[1] = cov, amr.geoms[0]
    assert np.array_equal(amr._clip_to_coverage(got, 1).lohi,
                          oracle._clip_to_coverage(amr, got, 1).lohi)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 40)),
                min_size=2, max_size=3), st.integers(1, 17), st.integers(1, 4))
def test_chop_equals_max_size_chop(sides, most, nboxes):
    """The array chop cuts every box into the pieces ``Box.max_size_chop``
    cut it into."""
    box = Box(tuple(lo for lo, _ in sides), tuple(lo + n - 1 for lo, n in sides))
    boxes = [box.shift((7 * k,) + (0,) * (box.dim - 1)) for k in range(nboxes)]

    def key(b):
        return b.lo.tup(), b.hi.tup()

    got = boxes_of(chop(lohi_of(boxes), most))
    want = [p for b in boxes for p in oracle.max_size_chop(b, most)]
    assert sorted(got, key=key) == sorted(want, key=key)


@st.composite
def layouts_and_regions(draw):
    """Boxes (a chopped level with holes, or arbitrary boxes that may
    overlap) and query regions around them (some empty, some a whole
    level's domain, some grown boxes of the level), 1-D to 3-D."""
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    n = draw(st.integers(0, 24))
    lo = rng.integers(-4, 30, (n, dim))
    boxes = np.stack([lo, lo + rng.integers(0, 9, (n, dim))], axis=1)
    if draw(st.booleans()):   # a level: disjoint boxes, chopped small
        boxes = chop(oracle.disjoint(boxes), draw(st.integers(2, 8))) if n \
            else boxes
    lo = rng.integers(-6, 34, (draw(st.integers(0, 6)), dim))
    regions = np.stack([lo, lo + rng.integers(-2, 24, lo.shape)], axis=1)
    extra = [grow(boxes, draw(st.integers(0, 3)))]
    if n:
        extra.append(np.stack([boxes[:, 0].min(0), boxes[:, 1].max(0)])[None])
    return BoxArray(boxes), np.concatenate([regions, *extra])


@settings(max_examples=300, deadline=None)
@given(layouts_and_regions())
def test_complement_gives_the_pieces_of_the_box_rounds(case):
    """Cutting each piece by the first box it meets gives, piece for piece
    and in the same order, what cutting every piece by every region's
    n-th box, round after round, gave."""
    ba, regions = case
    got, want = ba.complement(regions), oracle.complement(ba, regions)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_level_mask_equals_the_per_fab_tags():
    """One pass per group array marks the cells the per-fab launches
    tagged, and charges each rank the same points in fewer launches."""
    domain = Box((0, 0), (63, 47))
    ba = BoxArray.from_domain(domain, 16, 8)
    dm = DistributionMapping.make(ba, 3)
    groups = [(0, 1, 2), (3, 4, 5, 6), (7, 8, 9, 10, 11)]
    rng = np.random.default_rng(7)
    for ngrow in (0, 1, 3):
        mf = MultiFab(ba, dm, 2, ngrow, Communicator(3, 3), groups)
        mf.buffer[:] = rng.random(mf.buffer.size) ** 4
        runs = []
        for tag in (lambda: tag_density_gradient(mf, 1, 0.3, domain),
                    lambda: oracle.tag_density_gradient(mf, 1, 0.3)):
            be = make_exec_backend("device", [GpuDevice() for _ in range(3)])
            with use_backend(be):
                runs.append((tag(), [dev.table.total() for dev in be.devices],
                             be.class_totals()["tagging"]["points"]))
        (mask, launches, points), (tags, old_launches, old_points) = runs
        want = oracle.tagged_cells(mf, tags)
        assert np.array_equal(np.argwhere(mask),
                              want[np.lexsort(want.T[::-1])])
        assert mask.any() and points == old_points == ba.num_pts()
        assert sum(launches) < sum(old_launches) == len(ba)
