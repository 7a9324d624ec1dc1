"""Fail when gcc stops vectorising a hot loop of the compiled WENO sweep,
or when the row kernel's combination divides more than it has to.

``src/repro/numerics/weno_sweep.c`` is written around what gcc's
vectoriser accepts (``restrict`` on *parameters*, scalar temporaries, an
integer max reduction): an edit that breaks one of those still builds,
still passes every bitwise test, and runs several times slower.  This
compiles the source with the flags the loader uses
(``repro.numerics.native.CFLAGS``) plus ``-fopt-info-vec-optimized`` and
checks that the first loop of each of :data:`LOOPS` is reported.  The
vectorised row kernel is bound by its divides, so it also counts those
of ``combine()`` (:func:`divides`) against :data:`DIVIDES`.

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

#: the functions whose loop over contiguous cells carries the sweep — the
#: row kernel, the primitives pass A stores, the alpha reduction that
#: reads them, the flux split and the flux difference — and ComputeDt's
#: rate row
LOOPS = ("row", "primitives", "speed", "split_row", "diff_row", "rate_row")

#: the divides one WENO combination may do: ``1 / eps_eff`` and ``num /
#: sum`` (a divide per stencil passes every bitwise test and makes the
#: row kernel 1.7x slower)
DIVIDES = 2


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


def divides(source: str, name: str = "combine") -> int:
    """The ``/`` outside comments in the body of ``name()``, each call of
    a function or function-like macro of ``source`` counting its own."""
    source = re.sub(r"/\*.*?\*/|//[^\n]*", "", source, flags=re.S)
    bodies = dict(re.findall(r"^INLINE \w+ (\w+)\([^{]*(\{.*?^\})", source,
                             re.M | re.S))
    bodies.update(re.findall(r"^#define (\w+)\([^)]*\)(.*)$", source, re.M))

    def count(name: str) -> int:
        body = bodies[name]
        return body.count("/") + sum(count(f) for f in re.findall(
            r"\b(\w+)\(", body) if f in bodies and f != name)
    return count(name)


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
    from repro.numerics import native

    found = missing()
    for name in found:
        print(f"weno_sweep.c: the loop of {name}() is no longer vectorised",
              file=sys.stderr)
    n = divides(Path(native.__file__).with_name(native.SOURCE).read_text())
    if n > DIVIDES:
        print(f"weno_sweep.c: combine() divides {n} times, {DIVIDES} "
              f"allowed", file=sys.stderr)
    return 1 if found or n > DIVIDES else 0


if __name__ == "__main__":
    sys.exit(main())
