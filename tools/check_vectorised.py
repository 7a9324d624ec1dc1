"""Fail when gcc stops vectorising a hot loop of the compiled WENO sweep.

``src/repro/numerics/weno_sweep.c`` is written around what gcc's
vectoriser accepts (``restrict`` on *parameters*, scalar temporaries, an
integer max reduction): an edit that breaks one of those still builds,
still passes every bitwise test, and runs several times slower.  This
compiles the source with the flags the loader uses
(``repro.numerics.native.CFLAGS``) plus ``-fopt-info-vec-optimized`` and
checks that the first loop of each of :data:`LOOPS` is reported.

    PYTHONPATH=src python tools/check_vectorised.py
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

#: the functions whose loop over contiguous cells carries the sweep: the
#: row kernel, the alpha reduction, the flux split and the flux difference
LOOPS = ("row", "speed", "split_row", "diff_row")


def loop_lines(source: str) -> dict:
    """``{function: line of its first for}`` for each of :data:`LOOPS`."""
    lines = source.splitlines()
    out = {}
    for name in LOOPS:
        start = next(i for i, ln in enumerate(lines)
                     if re.match(rf"INLINE \w+ {name}\(", ln))
        out[name] = next(i for i in range(start, len(lines))
                         if lines[i].lstrip().startswith("for (")) + 1
    return out


def missing(source: Path = None, cc: str = None) -> list:
    """The functions of :data:`LOOPS` whose loop ``cc`` (default ``$CC``,
    else ``cc``) does not report as vectorised."""
    from repro.numerics import native

    source = source or Path(native.__file__).with_name(native.SOURCE)
    cc = shlex.split(cc or os.environ.get("CC") or "cc")
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [*cc, *native.CFLAGS, "-fopt-info-vec-optimized", str(source),
             "-o", str(Path(tmp) / "out.so")],
            capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{cc[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")
    vectorised = {int(n) for n in re.findall(
        r":(\d+):\d+: optimized: loop vectorized", proc.stderr)}
    return [name for name, line in loop_lines(source.read_text()).items()
            if line not in vectorised]


def main() -> int:
    found = missing()
    for name in found:
        print(f"weno_sweep.c: the loop of {name}() is no longer vectorised",
              file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
