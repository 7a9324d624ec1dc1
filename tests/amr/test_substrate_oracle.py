"""Substrate oracle: the communication ops against a brute-force reference.

For generated disjoint BoxArrays, DistributionMappings, ghost widths,
refinement ratios, dimensions and periodicities, FillBoundary,
ParallelCopy, FillPatchTwoLevels and AverageDown must equal what a
global-array computation gives cell by cell.  The reference knows nothing
of boxes meeting boxes: it scatters every MultiFab into one array over
the domain and reads single cells back (wrapped across periodic faces).

Each op runs twice on the same MultiFabs — once building its
communication plan, once reusing it — and must give bitwise-equal data
and the same ledger messages both times.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.average_down import average_down
from repro.amr.boundary import fill_boundary_nowait
from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import DistributionMapping
from repro.amr.fillpatch import fill_patch_two_levels
from repro.amr.geometry import Geometry
from repro.amr.interp_curvilinear import CurvilinearInterp
from repro.amr.interpolate import ConservativeLinearInterp, TrilinearInterp
from repro.amr.multifab import MultiFab
from repro.mpi.comm import Communicator
from tests.conftest import logged_messages

GHOST = -777.0   # what a ghost cell holds until something fills it
NCOMP = 2


# -- generated layouts ---------------------------------------------------------

def _bisect(draw, box, depth):
    """A random disjoint tiling of ``box`` by recursive bisection."""
    axes = [d for d in range(box.dim) if box.size()[d] >= 2]
    if depth == 0 or not axes or draw(st.integers(0, 3)) == 0:
        return [box]   # stop early one time in four
    d = draw(st.sampled_from(axes))
    low, high = box.chop(d, draw(st.integers(box.lo[d] + 1, box.hi[d])))
    return _bisect(draw, low, depth - 1) + _bisect(draw, high, depth - 1)


def _subset(draw, boxes):
    """A non-empty sub-list of ``boxes`` (about two in three kept)."""
    return [b for b in boxes if draw(st.integers(0, 2))] or boxes[:1]


@st.composite
def layouts(draw):
    """A coarse level tiling its whole domain, boxes scattered over it,
    and everything else an op's answer can depend on."""
    dim = draw(st.sampled_from([2, 3]))
    sizes = [draw(st.sampled_from([8, 12, 16] if dim == 2 else [4, 6]))
             for _ in range(dim)]
    domain = Box.from_extent([0] * dim, sizes)
    nranks = draw(st.integers(1, 4))

    def ranks(boxes):
        return DistributionMapping(
            [draw(st.integers(0, nranks - 1)) for _ in boxes], nranks)

    tiling = _bisect(draw, domain, 3)
    patches = _subset(draw, _bisect(draw, domain, 3))
    return {
        "dim": dim, "domain": domain, "nranks": nranks,
        "periodic": tuple(draw(st.booleans()) for _ in range(dim)),
        "ratio": draw(st.sampled_from([2, 4])),
        "ngrow": draw(st.sampled_from([2, 1, 3, 0])),
        "ngrow2": draw(st.sampled_from([1, 0, 3, 2])),
        "tiling": (BoxArray(tiling), ranks(tiling)),
        "patches": (BoxArray(patches), ranks(patches)),
        "seed": draw(st.integers(0, 2 ** 16)),
    }


def make_mf(ba_dm, ngrow, comm, rng, ncomp=NCOMP):
    """Random valid data, GHOST in every ghost cell."""
    mf = MultiFab(ba_dm[0], ba_dm[1], ncomp, ngrow, comm)
    for _, fab in mf:
        fab.data.fill(GHOST)
        fab.valid()[...] = rng.random(fab.valid().shape)
    return mf


# -- the brute-force reference ---------------------------------------------------

def global_array(mf, domain):
    """``mf``'s valid data in one array over ``domain``, NaN where no box is."""
    out = np.full((mf.ncomp,) + domain.shape(), np.nan)
    for _, fab in mf:
        out[(slice(None),) + fab.box.slices(relative_to=domain)] = fab.valid()
    return out


def cells(box):
    """Per-axis index arrays of every cell of ``box`` (its array's shape)."""
    return np.meshgrid(*[np.arange(l, h + 1) for l, h in zip(box.lo, box.hi)],
                       indexing="ij")


def locate(idx, domain, periodic):
    """Where cells ``idx`` sit in ``domain``: (index tuple, wrapped over
    periodic faces and clamped otherwise; mask of the cells that exist)."""
    exists = np.ones(idx[0].shape, dtype=bool)
    where = []
    for d, i in enumerate(idx):
        n = domain.size()[d]
        if periodic[d]:
            where.append((i - domain.lo[d]) % n)
        else:
            exists &= (i >= domain.lo[d]) & (i <= domain.hi[d])
            where.append(np.clip(i - domain.lo[d], 0, n - 1))
    return tuple(where), exists


def inside(idx, box):
    return np.logical_and.reduce(
        [(i >= l) & (i <= h) for i, l, h in zip(idx, box.lo, box.hi)])


def expect_same_level(mf, domain, periodic):
    """FillBoundary's answer per fab: every ghost cell that (wrapped) lies
    in some box's valid region holds that cell's value."""
    glob = global_array(mf, domain)
    out = {}
    for i, fab in mf:
        idx = cells(fab.grown_box())
        where, exists = locate(idx, domain, periodic)
        filled = (exists & ~np.isnan(glob[0][where])
                  & ~inside(idx, fab.box))
        out[i] = np.where(filled, glob[(slice(None),) + where], fab.data)
    return out


def padded(glob, width, periodic, beyond):
    """``glob`` extended ``width`` cells past every face: wrapped where
    periodic, else ``beyond`` ("edge": nearest cell, "constant": zero)."""
    for d, p in enumerate(periodic):
        pad = [(0, 0)] * glob.ndim
        pad[d + 1] = (width, width)
        glob = np.pad(glob, pad, mode="wrap" if p else beyond)
    return glob


def stretched(idx, sizes):
    """A smooth non-uniform coordinate field at cell centres ``idx``."""
    s = [(i + 0.5) / n for i, n in zip(idx, sizes)]
    dim = len(s)
    return np.stack([
        s[d] + 0.05 * np.sin(2 * np.pi * s[d]) + 0.03 * s[(d + 1) % dim] ** 2
        for d in range(dim)])


def interp_reference(kind, fidx, ratio, state, width, ccoords=None, xf=None):
    """Interpolated values at fine cells ``fidx`` (a list of 1-D index
    arrays) from the padded coarse array ``state``, one cell at a time."""
    dim = len(fidx)
    if kind == "conslinear":
        at = tuple(f // ratio + width for f in fidx)
        centre = state[(slice(None),) + at]
        out = centre.copy()
        for d in range(dim):
            up = tuple(a + (e == d) for e, a in enumerate(at))
            dn = tuple(a - (e == d) for e, a in enumerate(at))
            df = state[(slice(None),) + up] - centre
            db = centre - state[(slice(None),) + dn]
            slope = np.where(df * db > 0.0, np.sign(df) * np.minimum(
                0.5 * np.abs(df + db),
                2.0 * np.minimum(np.abs(df), np.abs(db))), 0.0)
            out += slope * ((fidx[d] + 0.5) / ratio - (fidx[d] // ratio + 0.5))
        return out
    centre = [(f + 0.5) / ratio - 0.5 for f in fidx]
    base = [np.floor(c).astype(int) for c in centre]

    def corner(arr, c):
        return arr[(slice(None),) + tuple(
            b + ((c >> d) & 1) + width for d, b in enumerate(base))]

    if kind == "trilinear":
        t = [c - b for c, b in zip(centre, base)]
    else:  # curvilinear: project the fine point on the coarse cell's edges
        x0 = corner(ccoords, 0)
        t = []
        for d in range(dim):
            edge = corner(ccoords, 1 << d) - x0
            denom = np.sum(edge * edge, axis=0)
            denom = np.where(denom > 0.0, denom, 1.0)
            t.append(np.clip(np.sum((xf - x0) * edge, axis=0) / denom, 0, 1))
    out = 0.0
    for c in range(1 << dim):
        w = 1.0
        for d in range(dim):
            w = w * (t[d] if (c >> d) & 1 else 1.0 - t[d])
        out = out + corner(state, c) * w
    return out


def expect_two_levels(kind, fine, crse, lay, fine_coords=None,
                      crse_coords=None):
    """FillPatchTwoLevels' answer per fine fab: same-level ghosts as in
    :func:`expect_same_level`; every other ghost cell inside the domain
    (a periodic direction has no outside) interpolated from the coarse
    level, which is wrapped across periodic faces and extended by its
    nearest cell past the others.  Coarse *coordinates* are not wrapped:
    past any face the curvilinear weights see zeros, the one-sided
    treatment physical boundaries get.  A coarse level that covers only
    the box ``lay["coverage"]`` of its domain is extended by its nearest
    cell past that box's faces too."""
    ratio, periodic = lay["ratio"], lay["periodic"]
    fdomain = lay["domain"].refine(ratio)
    cov = lay.get("coverage", lay["domain"])
    width = 3 // ratio + 3
    glob = global_array(fine, fdomain)
    state = padded(global_array(crse, cov), width, periodic, "edge")
    ccoords = None
    if crse_coords is not None:
        ccoords = padded(global_array(crse_coords, cov), width,
                         (False,) * lay["dim"], "constant")
    out = {}
    for i, fab in fine:
        idx = cells(fab.grown_box())
        where, exists = locate(idx, fdomain, periodic)
        ghost = exists & ~inside(idx, fab.box)
        same = ghost & ~np.isnan(glob[0][where])
        exp = np.where(same, glob[(slice(None),) + where], fab.data)
        m = ghost & ~same
        if m.any():
            xf = (fine_coords.fab(i).data[:, m]
                  if fine_coords is not None else None)
            exp[:, m] = interp_reference(
                kind, [a[m] - l * ratio for a, l in zip(idx, cov.lo)], ratio,
                state, width, ccoords, xf)
        out[i] = exp
    return out


# -- running an op cold, then warm ---------------------------------------------

def run_twice(op, written, comm):
    """Run ``op`` (which writes MultiFab ``written``) with no plan yet and
    again with the plan it left behind: same data, same messages, nothing
    rebuilt.  Returns the data per fab."""
    before = {i: fab.data.copy() for i, fab in written}
    runs = []
    with logged_messages() as log:
        for _ in range(2):
            for i, fab in written:
                fab.data[...] = before[i]
            first, builds = len(log.pairs), comm.plans_built
            op()
            runs.append(({i: fab.data.copy() for i, fab in written},
                         log.events[first:], comm.plans_built - builds))
    (cold, cold_msgs, _), (warm, warm_msgs, rebuilt) = runs
    for i in cold:
        np.testing.assert_array_equal(warm[i], cold[i])
    assert warm_msgs == cold_msgs
    assert rebuilt == 0, "the warm run must reuse the cold run's plans"
    for i, fab in written:
        fab.data[...] = before[i]
    return cold


def assert_fabs(got, expected, exact=True):
    for i, exp in expected.items():
        if exact:
            np.testing.assert_array_equal(got[i], exp)
        else:
            np.testing.assert_allclose(got[i], exp, rtol=1e-12, atol=1e-14)


# -- the oracle ------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(layouts())
def test_fill_boundary(lay):
    comm = Communicator(lay["nranks"], ranks_per_node=2)
    rng = np.random.default_rng(lay["seed"])
    geom = Geometry(lay["domain"], [0.0] * lay["dim"], [1.0] * lay["dim"],
                    lay["periodic"])
    for layout in ("patches", "tiling"):
        mf = make_mf(lay[layout], lay["ngrow"], comm, rng)
        expected = expect_same_level(mf, lay["domain"], lay["periodic"])
        assert_fabs(run_twice(lambda: fill_boundary_nowait(mf, geom).finish(), mf, comm),
                    expected)
        # without a geometry there are no periodic images
        expected = expect_same_level(mf, lay["domain"], (False,) * lay["dim"])
        assert_fabs(run_twice(lambda: fill_boundary_nowait(mf).finish(), mf, comm), expected)


@settings(max_examples=60, deadline=None)
@given(layouts(), st.booleans())
def test_parallel_copy(lay, fill_ghosts):
    comm = Communicator(lay["nranks"], ranks_per_node=2)
    rng = np.random.default_rng(lay["seed"])
    src = make_mf(lay["tiling"], lay["ngrow2"], comm, rng)
    dst = make_mf(lay["patches"], lay["ngrow"], comm, rng)
    for src, dst in ((src, dst), (dst, src)):
        glob = global_array(src, lay["domain"])
        expected = {}
        for i, fab in dst:
            idx = cells(fab.grown_box())
            where, exists = locate(idx, lay["domain"], (False,) * lay["dim"])
            filled = exists & ~np.isnan(glob[0][where])
            if not fill_ghosts:
                filled &= inside(idx, fab.box)
            expected[i] = np.where(filled, glob[(slice(None),) + where],
                                   fab.data)
        got = run_twice(
            lambda: dst.parallel_copy(src, fill_ghosts=fill_ghosts), dst, comm)
        assert_fabs(got, expected)


@settings(max_examples=60, deadline=None)
@given(layouts())
def test_average_down(lay):
    comm = Communicator(lay["nranks"], ranks_per_node=2)
    rng = np.random.default_rng(lay["seed"])
    r, dim = lay["ratio"], lay["dim"]
    crse = make_mf(lay["tiling"], lay["ngrow"], comm, rng)
    ba, dm = lay["patches"]
    fine = make_mf((ba.refine(r), dm), lay["ngrow2"], comm, rng)
    glob = global_array(fine, lay["domain"].refine(r))
    blocks = glob.reshape((NCOMP,) + tuple(
        n for s in lay["domain"].shape() for n in (s, r)))
    mean = blocks.mean(axis=tuple(range(2, 2 * dim + 1, 2)))
    expected = {}
    for i, fab in crse:
        idx = cells(fab.grown_box())
        where, exists = locate(idx, lay["domain"], (False,) * dim)
        covered = (exists & inside(idx, fab.box) & ~np.isnan(mean[0][where]))
        expected[i] = np.where(covered, mean[(slice(None),) + where], fab.data)
    got = run_twice(lambda: average_down(fine, crse, r), crse, comm)
    assert_fabs(got, expected, exact=False)


INTERPS = {"trilinear": TrilinearInterp, "curvilinear": CurvilinearInterp,
           "conslinear": ConservativeLinearInterp}


class TwoLevels:
    """A fine level over a coarse one, and the fill between them."""

    def __init__(self, lay, kind, comm, rng):
        self.lay, self.kind, self.comm, self.rng = lay, kind, comm, rng
        dim = lay["dim"]
        self.geom_c = Geometry(lay["domain"], [0.0] * dim, [1.0] * dim,
                               lay["periodic"])
        self.geom_f = self.geom_c.refine(lay["ratio"])
        ba, dm = lay["patches"]
        self.fine = make_mf((ba.refine(lay["ratio"]), dm), lay["ngrow"], comm,
                            rng)
        self.fine_coords = self._coords(self.fine, self.geom_f)
        self.interp = INTERPS[kind]()   # plans are built against this one
        self.replace_coarse(lay["tiling"])

    def _coords(self, like, geom):
        if self.kind != "curvilinear":
            return None
        coords = MultiFab(like.ba, like.dm, self.lay["dim"], like.ngrow, like.comm)
        for _, fab in coords:
            fab.data[...] = stretched(cells(fab.grown_box()),
                                      geom.domain.size())
        return coords

    def replace_coarse(self, ba_dm):
        """What a regrid of the coarse level does: new MultiFabs."""
        self.crse = make_mf(ba_dm, self.lay["ngrow"], self.comm, self.rng)
        self.crse_coords = self._coords(self.crse, self.geom_c)

    def fill(self):
        fill_patch_two_levels(
            self.fine, self.crse, self.geom_f, self.geom_c, self.lay["ratio"],
            self.interp, crse_coords=self.crse_coords,
            fine_coords=self.fine_coords)

    def expected(self):
        return expect_two_levels(self.kind, self.fine, self.crse, self.lay,
                                 self.fine_coords, self.crse_coords)


@settings(max_examples=60, deadline=None)
@given(layouts(), st.sampled_from(sorted(INTERPS)))
def test_fill_patch_two_levels(lay, kind):
    comm = Communicator(lay["nranks"], ranks_per_node=2)
    levels = TwoLevels(lay, kind, comm, np.random.default_rng(lay["seed"]))
    assert_fabs(run_twice(levels.fill, levels.fine, comm), levels.expected(),
                exact=False)


# -- named cases ---------------------------------------------------------------

def _layout(domain, tiling, patches, periodic, ratio=2, ngrow=2, nranks=2):
    return {
        "dim": domain.dim, "domain": domain, "nranks": nranks,
        "periodic": periodic, "ratio": ratio, "ngrow": ngrow, "ngrow2": ngrow,
        "tiling": (tiling, DistributionMapping.make(tiling, nranks)),
        "patches": (patches, DistributionMapping.make(patches, nranks)),
        "seed": 0,
    }


def test_periodic_coarse_fine_ghosts_are_interpolated():
    """Coarse/fine ghost cells across a periodic face used to be clipped
    away with the domain and keep stale values: a fine box (0,16)-(31,47)
    on a periodic 32x32 coarse level never had its x < 0 column filled."""
    domain = Box((0, 0), (31, 31))
    lay = _layout(domain, BoxArray.from_domain(domain, 16, 8),
                  BoxArray([Box((0, 8), (15, 23))]), (True, True))
    levels = TwoLevels(lay, "trilinear", Communicator(2, ranks_per_node=1),
                       np.random.default_rng(0))
    fab = levels.fine.fab(0)
    assert fab.box == Box((0, 16), (31, 47))
    expected = levels.expected()
    levels.fill()
    assert (fab.view(Box((-2, 16), (-1, 47))) != GHOST).all()
    np.testing.assert_allclose(fab.data, expected[0], rtol=1e-12)


@pytest.mark.parametrize("kind", sorted(INTERPS))
def test_coarse_level_that_does_not_tile_the_domain(kind):
    """Level 1 under level 2: the coarse level covers a rectangle inside
    the domain, and fine boxes sit against its edge and in its corner
    (nesting at its margin), so their ghost shells and stencils reach
    coarse cells no box holds — the gather takes the nearest covered cell,
    which over a rectangle is what edge padding gives.  Cold and warm."""
    domain = Box((0, 0), (15, 15))
    coverage = Box((2, 2), (13, 11))
    lay = _layout(
        domain,
        BoxArray([Box((2, 2), (7, 11)), Box((8, 2), (13, 6)),
                  Box((8, 7), (13, 11))]),
        BoxArray([Box((2, 4), (5, 8)), Box((9, 8), (13, 11)),
                  Box((6, 2), (8, 4))]),
        (False, False))
    lay["coverage"] = coverage
    comm = Communicator(2, ranks_per_node=1)
    levels = TwoLevels(lay, kind, comm, np.random.default_rng(2))
    assert not levels.crse.ba.contains(domain)
    assert levels.crse.ba.contains(coverage)
    got = run_twice(levels.fill, levels.fine, comm)
    assert_fabs(got, levels.expected(), exact=False)
    # the extension was used: a ghost cell past the coverage's low-x edge,
    # inside the domain, holds an interpolated value
    assert (got[0][:, :2, 2:-2] != GHOST).all()


@pytest.mark.parametrize("kind", sorted(INTERPS))
def test_stale_plan_trap(kind):
    """A regrid can replace the coarse level under a fine level whose
    BoxArray did not change (AmrCore.regrid then skips remake_level): the
    fine MultiFab — and the plan cached on it — survives, and the plan
    must notice that the coarse MultiFab it indexes into is gone."""
    domain = Box((0, 0), (15, 15))
    lay = _layout(domain, BoxArray.from_domain(domain, 8, 8),
                  BoxArray([Box((4, 4), (11, 9)), Box((4, 10), (11, 11))]),
                  (False, True))
    comm = Communicator(2, ranks_per_node=1)
    levels = TwoLevels(lay, kind, comm, np.random.default_rng(1))
    before = {i: fab.data.copy() for i, fab in levels.fine}
    first = levels.expected()
    levels.fill()
    assert_fabs({i: f.data for i, f in levels.fine}, first, exact=False)

    # other coarse boxes, owners and values under the very same fine level
    for i, fab in levels.fine:
        fab.data[...] = before[i]
    retiled = BoxArray.from_domain(domain, 4, 4)
    levels.replace_coarse(
        (retiled, DistributionMapping.make(retiled, 2, "roundrobin")))
    builds = comm.plans_built
    second = levels.expected()
    levels.fill()
    assert comm.plans_built > builds
    assert_fabs({i: f.data for i, f in levels.fine}, second, exact=False)
    assert any((second[i] != first[i]).any() for i in first)
