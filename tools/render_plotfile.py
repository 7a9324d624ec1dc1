#!/usr/bin/env python
"""Render a plotfile field to a portable graymap (.pgm) image.

No plotting libraries required: PGM is a plain-text image format every
viewer understands.  AMR levels can be overlaid (finer data replaces
coarser where present), reproducing the visual content of the paper's
Fig. 2 density contour.

Usage:  python tools/render_plotfile.py PLOTFILE [--comp N] [--out FILE]
        [--log] [--levels L]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.io.plotfile import read_level, read_plotfile_header  # noqa: E402


def assemble(path: str, comp: int, max_level: int) -> np.ndarray:
    """Compose levels 0..max_level onto the finest grid (2D slice; a 1D
    field is one row)."""
    header = read_plotfile_header(path)
    max_level = min(max_level, header["finest_level"])
    ratio = 2
    # finest-level canvas
    lo, hi = header["levels"][max_level]["domain"]
    shape = (tuple(h - l + 1 for l, h in zip(lo, hi)) + (1,))[:2]
    canvas = np.full(shape, np.nan)
    for lev in range(max_level + 1):
        fabs = read_level(path, lev)
        meta = header["levels"][lev]
        scale = ratio ** (max_level - lev)
        for i, (blo, bhi) in enumerate(meta["boxes"]):
            arr = fabs[i][comp]
            if arr.ndim == 1:  # 1D: one row, refined along x only
                arr = arr[:, None]
            elif arr.ndim == 3:  # 3D: take the mid-z slice
                arr = arr[:, :, arr.shape[2] // 2]
            up = np.repeat(arr, scale, axis=0)
            if len(blo) > 1:
                up = np.repeat(up, scale, axis=1)
            x0, y0 = blo[0] * scale, (blo[1] * scale if len(blo) > 1 else 0)
            canvas[x0: x0 + up.shape[0], y0: y0 + up.shape[1]] = up
    return canvas


def write_pgm(field: np.ndarray, out: Path, log_scale: bool) -> None:
    data = field.copy()
    if log_scale:
        data = np.log10(np.maximum(data, 1e-12))
    finite = data[np.isfinite(data)]
    lo, hi = float(finite.min()), float(finite.max())
    norm = (data - lo) / (hi - lo + 1e-300)
    gray = np.nan_to_num(norm, nan=0.0)
    img = (gray * 255).astype(np.uint8)
    # PGM: x right, y up -> rows top to bottom
    img = img.T[::-1]
    with open(out, "w") as f:
        f.write(f"P2\n{img.shape[1]} {img.shape[0]}\n255\n")
        for row in img:
            f.write(" ".join(str(int(v)) for v in row) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("plotfile")
    ap.add_argument("--comp", type=int, default=0, help="component index")
    ap.add_argument("--out", default=None, help="output .pgm path")
    ap.add_argument("--log", action="store_true", help="log10 scale")
    ap.add_argument("--levels", type=int, default=99,
                    help="highest AMR level to overlay")
    args = ap.parse_args(argv)
    field = assemble(args.plotfile, args.comp, args.levels)
    out = Path(args.out or (Path(args.plotfile).name + f"_c{args.comp}.pgm"))
    write_pgm(field, out, args.log)
    finite = field[np.isfinite(field)]
    print(f"wrote {out}  ({field.shape[0]}x{field.shape[1]}, "
          f"range [{finite.min():.3g}, {finite.max():.3g}])")
    return 0


if __name__ == "__main__":
    sys.exit(main())
