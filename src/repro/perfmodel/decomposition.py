"""Metadata-only decompositions at Summit problem sizes.

Builds the BoxArray / DistributionMapping structure of the paper's runs —
up to 4.19e10 equivalent grid points over tens of thousands of ranks —
without allocating any field data, so message volumes and per-rank loads
come from real geometry, not estimates.

Two level representations:

- :class:`LatticeLevel` — a uniform rectangular lattice of equal boxes
  (the non-AMR levels and the coarsest AMR level).  Ghost-exchange volumes
  and ownership are computed with fully vectorized NumPy over the lattice,
  handling ~1e5 boxes in milliseconds.
- :class:`BoxLevel` — a general BoxArray + DistributionMapping (the AMR
  band levels, a few thousand boxes), using the spatial-hash intersection
  machinery of :mod:`repro.amr`.

The AMR hierarchy mirrors the DMR's three-level structure (Fig. 2): the
coarsest level covers the domain, while each finer level covers a diagonal
staircase band following the incident-shock trace, sized by the
calibration's band fractions to land in the paper's 89-94% active-point
reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.amr.box import Box
from repro.amr.boxarray import (BoxArray, boxes_of, chop, grow, lohi_of,
                                num_pts)
from repro.amr.distribution import DistributionMapping
from repro.amr.intvect import IntVect
from repro.amr.morton import morton_encode
from repro.perfmodel.calibration import CAL, Calibration

#: DMR shock-trace geometry (index space, fractions of the domain)
DMR_X0_FRAC = (1.0 / 6.0) / 4.0
DMR_SLOPE = (1.0 / math.sqrt(3.0)) / 4.0  # dx_frac per dy_frac


@dataclass(frozen=True)
class HierarchySpec:
    """Inputs describing one run's decomposition."""

    equiv_cells: Tuple[int, int, int]
    nranks: int
    ranks_per_node: int
    amr: bool
    cal: Calibration = CAL


@dataclass
class CommVolumes:
    """Per-rank ghost-exchange traffic for one level (bytes)."""

    off_node_recv: np.ndarray
    on_node_recv: np.ndarray
    messages: np.ndarray
    total_bytes: float


class LevelDecomposition:
    """Common interface of one AMR level's decomposition metadata."""

    level: int
    domain: Box
    nranks: int

    def fillboundary_volumes_cached(self, ncomp: int, ngrow: int,
                                    ranks_per_node: int) -> "CommVolumes":
        """Memoized ghost-volume computation (reused across versions)."""
        key = (ncomp, ngrow, ranks_per_node)
        cache = getattr(self, "_fb_cache", None)
        if cache is None:
            cache = {}
            self._fb_cache = cache
        if key not in cache:
            cache[key] = self.fillboundary_volumes(ncomp, ngrow, ranks_per_node)
        return cache[key]

    def num_pts(self) -> int:
        raise NotImplementedError

    def num_boxes(self) -> int:
        raise NotImplementedError

    def per_rank_pts(self) -> np.ndarray:
        raise NotImplementedError

    def boxes_per_rank(self) -> np.ndarray:
        raise NotImplementedError

    def box_pts_and_ranks(self) -> Tuple[np.ndarray, np.ndarray]:
        """(points per box, owner rank per box) arrays."""
        raise NotImplementedError

    def fillboundary_volumes(self, ncomp: int, ngrow: int,
                             ranks_per_node: int) -> CommVolumes:
        raise NotImplementedError


class LatticeLevel(LevelDecomposition):
    """A uniform lattice of (sx, sy, sz) boxes covering the whole domain."""

    def __init__(self, level: int, domain: Box, box_size: Tuple[int, int, int],
                 nranks: int) -> None:
        self.level = level
        self.domain = domain
        self.box_size = tuple(box_size)
        self.nranks = nranks
        n = domain.size()
        for d in range(3):
            if n[d] % box_size[d] != 0:
                raise ValueError(
                    f"lattice box size {box_size[d]} does not divide "
                    f"domain extent {n[d]} in direction {d}"
                )
        self.counts = tuple(n[d] // box_size[d] for d in range(3))
        self._ranks3d = self._sfc_ranks()

    def _sfc_ranks(self) -> np.ndarray:
        """Z-Morton ordering split into equal contiguous rank chunks."""
        cx, cy, cz = self.counts
        coords = np.stack(
            np.meshgrid(np.arange(cx), np.arange(cy), np.arange(cz),
                        indexing="ij"),
            axis=-1,
        ).reshape(-1, 3)
        order = np.argsort(morton_encode(coords), kind="stable")
        nboxes = len(order)
        ranks_sorted = np.minimum(
            (np.arange(nboxes) * self.nranks) // max(1, nboxes),
            self.nranks - 1,
        )
        ranks = np.empty(nboxes, dtype=np.int64)
        ranks[order] = ranks_sorted
        return ranks.reshape(cx, cy, cz)

    # -- interface ---------------------------------------------------------
    def num_pts(self) -> int:
        return self.domain.num_pts()

    def num_boxes(self) -> int:
        return int(np.prod(self.counts))

    def box_pts(self) -> int:
        return int(np.prod(self.box_size))

    def per_rank_pts(self) -> np.ndarray:
        return self.boxes_per_rank() * self.box_pts()

    def boxes_per_rank(self) -> np.ndarray:
        return np.bincount(self._ranks3d.ravel(), minlength=self.nranks)

    def box_pts_and_ranks(self) -> Tuple[np.ndarray, np.ndarray]:
        ranks = self._ranks3d.ravel()
        return np.full(len(ranks), self.box_pts(), dtype=np.int64), ranks

    def fillboundary_volumes(self, ncomp: int, ngrow: int,
                             ranks_per_node: int) -> CommVolumes:
        """Vectorized exact ghost volumes over the 26 lattice neighbors."""
        ranks = self._ranks3d
        nodes = ranks // ranks_per_node
        off = np.zeros(self.nranks)
        on = np.zeros(self.nranks)
        msgs = np.zeros(self.nranks, dtype=np.int64)
        total = 0.0
        s = self.box_size
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    if dx == dy == dz == 0:
                        continue
                    vol = 1
                    for d, off_d in enumerate((dx, dy, dz)):
                        vol *= ngrow if off_d != 0 else s[d]
                    nbytes = vol * ncomp * 8
                    dst_sl, src_sl = _shift_slices((dx, dy, dz))
                    dst = ranks[dst_sl].ravel()
                    src = ranks[src_sl].ravel()
                    total += nbytes * len(dst)
                    cross = src != dst
                    same_node = nodes[dst_sl].ravel() == nodes[src_sl].ravel()
                    np.add.at(on, dst[cross & same_node], nbytes)
                    np.add.at(off, dst[cross & ~same_node], nbytes)
                    np.add.at(msgs, dst[cross & ~same_node], 1)
        return CommVolumes(off, on, msgs, total)


def _shift_slices(offset: Tuple[int, int, int]):
    """(dst, src) slice tuples pairing each box with its offset neighbor."""
    dst, src = [], []
    for o in offset:
        if o == 0:
            dst.append(slice(None))
            src.append(slice(None))
        elif o > 0:
            dst.append(slice(None, -1))
            src.append(slice(1, None))
        else:
            dst.append(slice(1, None))
            src.append(slice(None, -1))
    return tuple(dst), tuple(src)


class BoxLevel(LevelDecomposition):
    """A general BoxArray-based level (the AMR shock-band levels)."""

    def __init__(self, level: int, domain: Box, ba: BoxArray,
                 dm: DistributionMapping) -> None:
        self.level = level
        self.domain = domain
        self.ba = ba
        self.dm = dm
        self.nranks = dm.nranks

    def num_pts(self) -> int:
        return self.ba.num_pts()

    def num_boxes(self) -> int:
        return len(self.ba)

    def per_rank_pts(self) -> np.ndarray:
        return self.dm.load_per_rank(self.ba)

    def boxes_per_rank(self) -> np.ndarray:
        return np.bincount(np.asarray(self.dm.ranks()), minlength=self.nranks)

    def box_pts_and_ranks(self) -> Tuple[np.ndarray, np.ndarray]:
        return num_pts(self.ba.lohi), np.asarray(self.dm.ranks())

    def fillboundary_volumes(self, ncomp: int, ngrow: int,
                             ranks_per_node: int) -> CommVolumes:
        ranks = np.asarray(self.dm.ranks())
        nodes = ranks // ranks_per_node
        # every box's grown region against every other box, in one query
        i, j, overlap = self.ba.intersect(grow(self.ba.lohi, ngrow))
        other = i != j
        i, j, nbytes = i[other], j[other], num_pts(overlap[other]) * ncomp * 8
        cross, same = ranks[i] != ranks[j], nodes[i] == nodes[j]
        on = np.bincount(ranks[i], nbytes * (cross & same), self.nranks)
        off = np.bincount(ranks[i], nbytes * (cross & ~same), self.nranks)
        msgs = np.bincount(ranks[i], cross & ~same, self.nranks)
        return CommVolumes(off, on, msgs.astype(np.int64), float(nbytes.sum()))


# -- construction helpers ------------------------------------------------


def round_align(n: float, align: int) -> int:
    """Round to the nearest positive multiple of ``align``."""
    return max(align, int(round(n / align)) * align)


def dmr_grid_shape(total_points: float, align: int = 32) -> Tuple[int, int, int]:
    """A DMR-shaped grid with ~``total_points`` cells.

    The physical 2:1 aspect in x and z fixes nx = 2 nz; the y resolution is
    the free parameter the paper uses to hit target sizes (Sec. V-C).  All
    extents are multiples of ``align`` so three levels of factor-2
    coarsening stay blocking-factor aligned.
    """
    if total_points <= 0:
        raise ValueError("total_points must be positive")
    nz = round_align((total_points / 2.0) ** (1.0 / 3.0) / 1.3, align)
    nx = 2 * nz
    ny = round_align(total_points / (nx * nz), align)
    return (nx, ny, nz)


def auto_max_grid_size(level_pts: float, nranks: int, cal: Calibration) -> int:
    """Chop size giving each rank work, within [blocking_factor, max_grid_size].

    AMReX users tune ``max_grid_size`` per run; one box per rank of roughly
    (points/rank)^(1/3) is the standard choice, capped at the paper's 128.
    A box-count ceiling keeps the decomposition practical: beyond it the
    grids stay coarser-grained and some ranks idle on that level.
    """
    if level_pts <= 0 or nranks <= 0:
        raise ValueError("level_pts and nranks must be positive")
    target = (level_pts / max(1, min(nranks, cal.max_boxes_per_level))) ** (1.0 / 3.0)
    # guard against 15.9999... flooring one blocking unit short
    ms = int((target + 1e-9) // cal.blocking_factor) * cal.blocking_factor
    return int(min(cal.max_grid_size, max(cal.blocking_factor, ms)))


def lattice_box_size(extent: int, target: int, bf: int) -> int:
    """Largest divisor of ``extent`` that is a multiple of ``bf`` and <= target.

    Falls back to ``bf`` (which always divides blocking-aligned extents).
    """
    if extent % bf != 0:
        raise ValueError("extent must be a multiple of the blocking factor")
    best = bf
    for k in range(target // bf, 0, -1):
        cand = k * bf
        if extent % cand == 0:
            best = cand
            break
    return best


def shock_band_boxes(domain: Box, width_frac: float, cal: Calibration,
                     max_size: int) -> BoxArray:
    """Staircase of boxes along the DMR shock trace covering ~width_frac.

    Walks the y extent in blocking-aligned slabs; each slab gets a box in x
    centered on the local shock position, spanning the full z extent.
    """
    if not 0 < width_frac < 1:
        raise ValueError("width_frac must lie in (0, 1)")
    nx, ny, nz = domain.size()
    bf = cal.blocking_factor
    half_w = max(bf, int(width_frac * nx / 2))
    step = max(bf, min(max_size, ny))
    boxes: List[Box] = []
    y = domain.lo[1]
    while y <= domain.hi[1]:
        y1 = min(y + step - 1, domain.hi[1])
        xs0 = DMR_X0_FRAC * nx + DMR_SLOPE * nx * (y - domain.lo[1]) / ny
        xs1 = DMR_X0_FRAC * nx + DMR_SLOPE * nx * (y1 + 1 - domain.lo[1]) / ny
        x_lo = int(min(xs0, xs1)) - half_w
        x_hi = int(max(xs0, xs1)) + half_w
        # align outward to the blocking factor and clip to the domain
        x_lo = max(domain.lo[0], (x_lo // bf) * bf)
        x_hi = min(domain.hi[0], -(-(x_hi + 1) // bf) * bf - 1)
        slab = Box(
            IntVect(x_lo, y, domain.lo[2]),
            IntVect(x_hi, y1, domain.hi[2]),
        )
        boxes.extend(boxes_of(chop(lohi_of([slab]), max_size)))
        y = y1 + 1
    boxes.sort(key=lambda b: b.lo.tup())
    return BoxArray(boxes)


def build_hierarchy(spec: HierarchySpec) -> List[LevelDecomposition]:
    """Build the run's level decompositions (coarsest first)."""
    cal = spec.cal
    nx, ny, nz = spec.equiv_cells
    fine_domain = Box((0, 0, 0), (nx - 1, ny - 1, nz - 1))
    if not spec.amr:
        ms = auto_max_grid_size(fine_domain.num_pts(), spec.nranks, cal)
        size = tuple(
            lattice_box_size(fine_domain.size()[d], ms, cal.blocking_factor)
            for d in range(3)
        )
        return [LatticeLevel(0, fine_domain, size, spec.nranks)]

    r = cal.ref_ratio
    n_levels = cal.n_levels
    coarse_domain = fine_domain
    for _ in range(n_levels - 1):
        coarse_domain = coarse_domain.coarsen(r)
    fracs = _band_fractions(cal, n_levels)
    levels: List[LevelDecomposition] = []
    domain = coarse_domain
    for lev in range(n_levels):
        if lev == 0:
            ms = auto_max_grid_size(domain.num_pts(), spec.nranks, cal)
            size = tuple(
                lattice_box_size(domain.size()[d], ms, cal.blocking_factor)
                for d in range(3)
            )
            levels.append(LatticeLevel(0, domain, size, spec.nranks))
        else:
            frac = fracs[lev]
            est_pts = frac * domain.num_pts()
            ms = auto_max_grid_size(max(1.0, est_pts), spec.nranks, cal)
            ba = shock_band_boxes(domain, frac, cal, ms)
            dm = DistributionMapping.make(ba, spec.nranks, "sfc")
            levels.append(BoxLevel(lev, domain, ba, dm))
        if lev < n_levels - 1:
            domain = domain.refine(r)
    return levels


def _band_fractions(cal: Calibration, n_levels: int) -> Dict[int, float]:
    """Refined-area fraction per level (level 0 covers everything)."""
    fracs = {0: 1.0}
    if n_levels >= 2:
        fracs[1] = cal.band_fraction_mid
    for lev in range(2, n_levels):
        fracs[lev] = cal.band_fraction_fine
    return fracs


def dmr_band_hierarchy(total_equiv_points: float, nranks: int,
                       ranks_per_node: int, amr: bool,
                       cal: Calibration = CAL) -> List[LevelDecomposition]:
    """Convenience: shape + hierarchy for one scaling-study configuration."""
    shape = dmr_grid_shape(
        total_equiv_points,
        align=cal.blocking_factor * cal.ref_ratio ** (cal.n_levels - 1),
    )
    return build_hierarchy(HierarchySpec(shape, nranks, ranks_per_node, amr, cal))


def active_points(levels: Sequence[LevelDecomposition]) -> int:
    return sum(lev.num_pts() for lev in levels)


def amr_reduction(levels: Sequence[LevelDecomposition]) -> float:
    """Fraction of points saved vs the equivalent uniform fine grid."""
    equiv = levels[-1].domain.num_pts()
    return 1.0 - active_points(levels) / equiv


def coarse_fine_volumes(fine: LevelDecomposition, crse: LevelDecomposition,
                        ncomp: int, ngrow: int, ratio: int,
                        interface_fraction: float) -> Tuple[float, float]:
    """(max per-rank bytes, total bytes) of two-level interpolation gathers.

    The coarse source region of each fine box's ghost shell is gathered
    from the coarse level; only boxes at coarse/fine interfaces
    (``interface_fraction`` of them) actually have uncovered ghosts.
    """
    pts, ranks = fine.box_pts_and_ranks()
    side = np.cbrt(pts)
    shell = (side + 2 * ngrow) ** 3 - pts
    nbytes = shell / ratio**3 * 1.5 * ncomp * 8 * interface_fraction
    recv = np.zeros(fine.nranks)
    np.add.at(recv, ranks, nbytes)
    return float(recv.max()), float(nbytes.sum())


def averagedown_volumes(fine: LevelDecomposition, ncomp: int,
                        ratio: int) -> Tuple[float, float]:
    """(max per-rank bytes, total bytes) of fine->coarse restriction."""
    pts, ranks = fine.box_pts_and_ranks()
    nbytes = pts / ratio**3 * ncomp * 8
    send = np.zeros(fine.nranks)
    np.add.at(send, ranks, nbytes)
    return float(send.max()), float(nbytes.sum())
