"""Plotfile output (AMReX-flavored layout, NumPy payloads).

A plotfile is a directory with a text ``Header`` describing the hierarchy
(time, variables, per-level box lists) and one ``.npz`` payload per level
holding each patch's data — enough for the examples to dump fields (Fig. 2
style density snapshots) and for tests to read them back.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

import numpy as np

HEADER_NAME = "Header"
FORMAT_TAG = "repro-plotfile-1"


def write_plotfile(path: Union[str, Path], crocco,
                   varnames: Optional[Sequence[str]] = None) -> Path:
    """Write the full level hierarchy of a Crocco run to ``path``."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    lay = crocco.case.layout
    if varnames is None:
        varnames = (
            [f"rho_{k}" for k in range(lay.nspecies)]
            + [f"mom_{d}" for d in range(lay.dim)]
            + ["energy"]
        )
    if len(varnames) != lay.ncons:
        raise ValueError("one variable name per conservative component required")
    header = {
        "format": FORMAT_TAG,
        "time": crocco.time,
        "step": crocco.step_count,
        "dim": lay.dim,
        "ncomp": lay.ncons,
        "varnames": list(varnames),
        "finest_level": crocco.finest_level,
        "levels": [],
    }
    for lev in range(crocco.finest_level + 1):
        mf = crocco.state[lev]
        boxes = [[list(b.lo.tup()), list(b.hi.tup())] for b in mf.ba]
        header["levels"].append({
            "level": lev,
            "domain": [list(crocco.geoms[lev].domain.lo.tup()),
                       list(crocco.geoms[lev].domain.hi.tup())],
            "boxes": boxes,
            "owners": list(mf.dm.ranks()),
        })
        arrays = {f"fab{i:05d}": fab.valid() for i, fab in mf}
        np.savez_compressed(path / f"Level_{lev}.npz", **arrays)
    (path / HEADER_NAME).write_text(json.dumps(header, indent=1))
    return path


def read_plotfile_header(path: Union[str, Path]) -> Dict:
    """Parse a plotfile's Header."""
    header = json.loads((Path(path) / HEADER_NAME).read_text())
    if header.get("format") != FORMAT_TAG:
        raise ValueError(f"not a {FORMAT_TAG} plotfile: {path}")
    return header


def read_level(path: Union[str, Path], level: int) -> Dict[int, np.ndarray]:
    """Load one level's patch arrays, keyed by box index."""
    with np.load(Path(path) / f"Level_{level}.npz") as data:
        return {int(k[3:]): data[k] for k in data.files}
