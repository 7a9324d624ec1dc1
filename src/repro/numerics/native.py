"""The compiled WENO row kernel: built on first use, loaded through ctypes.

``weno_rows.c`` (beside this file, shipped as package data) is
:meth:`~repro.numerics.weno.WenoScheme.combine` of the plus windows plus
its mirror image on the minus windows in one pass, in NumPy's operation
order: bitwise the reference, ~15x faster.  :func:`weno_rows` hands the
sweep that kernel, or ``None`` — after **one** ``RuntimeWarning`` — when
no library can be had; the NumPy combination then runs and the numbers
are the same.  Which one a process got is :func:`status`.

The library is built with ``$CC`` (default ``cc``) into
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``; a per-user temp
directory when that is unwritable) through a temp directory and
``os.replace``, under a name keyed by the source, the flags, the compiler
binary and the CPU it is tuned for — and by the hash of the library's own
bytes, checked before ``dlopen``.  The handle is module state: resolved
once per process, lazily at the first sweep (never at ``import repro``)
and never pickled, so a pool or fleet worker loads its own.
"""

from __future__ import annotations

import math
import os
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

from repro.numerics.weno import (BETA_K, WENO_EPS_FLOOR, WenoScheme,
                                 stencil_tables, windows)

SOURCE = "weno_rows.c"

#: never ``-ffast-math``, and no contraction of ``a * b + c`` into an
#: FMA: the kernel is bitwise ``WenoScheme.combine`` only in IEEE order
CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")

_UNRESOLVED = object()
_kernel = _UNRESOLVED
_status: Dict[str, str] = {}


def weno_rows() -> Optional[Callable]:
    """The compiled kernel ``f(scheme, fp, fm, start, out)``, or ``None``.

    ``fp`` / ``fm`` are the split fluxes stored sweep axis first
    ``(n, ...)``, ``out`` is ``(nif, ...)``: interface ``j`` of ``out``
    becomes ``combine`` of rows ``start + j .. start + j + 5`` of ``fp``
    plus ``combine_minus`` of the same rows of ``fm``.
    """
    global _kernel
    if _kernel is _UNRESOLVED:
        try:
            _kernel = _load()
        except Exception as exc:  # whatever broke, the NumPy path runs
            _kernel = None
            why = " ".join(str(exc).split())[:200] or type(exc).__name__
            _status.update(impl="numpy", cache="-", detail=why)
            warnings.warn(f"compiled WENO kernel unavailable ({why}); "
                          "running the NumPy combination", RuntimeWarning,
                          stacklevel=2)
    return _kernel


def status() -> Dict[str, str]:
    """What the sweeps of this process run (resolved now if none has
    yet): ``impl`` ``compiled | numpy``, ``cache`` ``hit | miss | -``,
    ``detail`` (the compiler and flags, or why not) and ``line``, the
    ``kernel.weno_impl = ...`` line of the CLI and the run report."""
    weno_rows()
    s = dict(_status)
    cache = f"cache {s['cache']}; " if s["impl"] == "compiled" else ""
    s["line"] = f"kernel.weno_impl = {s['impl']} ({cache}{s['detail']})"
    return s


def _digest(*parts: bytes) -> str:
    import hashlib

    return hashlib.sha256(b"\0".join(parts)).hexdigest()[:16]


def _build(cc, source: bytes, cache: Path, key: str) -> Path:
    """Compile into ``cache``; the library is named by ``key`` and by the
    hash of its own bytes."""
    import subprocess
    import tempfile

    cache.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        src, out = Path(tmp) / SOURCE, Path(tmp) / "out.so"
        src.write_bytes(source)
        proc = subprocess.run([*cc, *CFLAGS, str(src), "-o", str(out)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0 or not out.exists():
            last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            raise RuntimeError(f"{cc[0]} exited {proc.returncode}: {last}")
        lib = cache / f"weno_rows-{key}-{_digest(out.read_bytes())}.so"
        os.replace(out, lib)
    return lib


def _library() -> tuple:
    """``(path, "hit" | "miss", compiler and flags)`` of the library for
    this source, compiler and CPU: from the cache, else built into it."""
    import platform
    import shlex
    import shutil
    import tempfile

    source = Path(__file__).with_name(SOURCE).read_bytes()
    cc = shlex.split(os.environ.get("CC") or "cc")
    exe = shutil.which(cc[0]) if cc else None
    if exe is None:
        raise RuntimeError(f"no C compiler ({' '.join(cc) or 'empty $CC'})")
    try:  # what -march=native tunes for
        with open("/proc/cpuinfo") as f:
            cpu = next((ln for ln in f if ln.startswith(("flags", "Features"))), "")
    except OSError:
        cpu = platform.processor()
    st = os.stat(exe)  # follows links: the binary a compiler update replaces
    flags = " ".join([*cc[1:], *CFLAGS])
    key = _digest(source, flags.encode(), (platform.machine() + cpu).encode(),
                  f"{os.path.realpath(exe)} {st.st_size} {st.st_mtime_ns}".encode())

    error: Exception = RuntimeError("no cache directory")
    for cache in (Path(os.environ.get("XDG_CACHE_HOME")
                       or os.path.expanduser("~/.cache")) / "repro",
                  Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"):
        try:
            found = sorted(cache.glob(f"weno_rows-{key}-*.so"))
            lib = found[0] if found else _build([exe, *cc[1:]], source,
                                                cache, key)
        except OSError as exc:  # unwritable here: try the next directory
            error = exc
            continue
        # dlopen of a truncated ELF is a SIGBUS, not an error: only the
        # bytes that were built are handed to it
        if lib.stem.rsplit("-", 1)[1] != _digest(lib.read_bytes()):
            raise RuntimeError(f"{lib} is damaged (remove it)")
        return lib, "hit" if found else "miss", f"{Path(exe).name} {flags}"
    raise error


def _load() -> Callable:
    import ctypes

    lib, cache, built_with = _library()
    fn = ctypes.CDLL(str(lib)).weno_rows
    p, n, d = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
    fn.argtypes = [p, p, p, n, n, n, ctypes.c_int, p, p, p, p, d, d, d, d]
    fn.restype = None

    def kernel(scheme: WenoScheme, fp: np.ndarray, fm: np.ndarray,
               start: int, out: np.ndarray) -> None:
        nif = out.shape[0]
        if not (fp.shape == fm.shape and fp.shape[1:] == out.shape[1:]
                and 0 <= start and start + nif + 5 <= fp.shape[0]
                and all(a.dtype == np.float64 and a.flags.c_contiguous
                        for a in (fp, fm, out))):
            raise ValueError("weno_rows wants float64 C-contiguous (n, ...) "
                             "fluxes and (nif, ...) interfaces with "
                             "start + nif + 5 <= n")
        fn(fp.ctypes.data, fm.ctypes.data, out.ctypes.data, nif,
           math.prod(out.shape[1:]), start, *_scheme_args(scheme)[1])

    _self_check(kernel, lib)
    _status.update(impl="compiled", cache=cache, detail=built_with)
    return kernel


def _self_check(kernel: Callable, lib: Path) -> None:
    """One window of a jump (cap and limiter both active) against the
    reference: a library that is not this source's fails here."""
    x = np.arange(2 * 9 * 7, dtype=np.float64).reshape(2, 9, 7)
    fp, fm = np.where(np.sin(x) > 0.0, 1.0, 10.0) + 0.1 * np.cos(7.0 * x)
    got, scheme = np.empty((3, 7)), WenoScheme()
    kernel(scheme, fp, fm, 1, got)
    ref = scheme.combine(windows(fp, 0, 1, 3))
    scheme.combine_minus(windows(fm, 0, 1, 3), out=ref, add=True)
    if not np.array_equal(got, ref):
        raise RuntimeError(f"{lib} does not reproduce WenoScheme.combine")


@lru_cache(maxsize=None)
def _scheme_args(scheme: WenoScheme) -> tuple:
    """The scheme's side of the C signature; the arrays stay referenced
    here for as long as their addresses are in use."""
    nst = scheme.n_stencils
    arrays = tuple(np.ascontiguousarray(a, dtype=np.float64)
                   for a in (*stencil_tables(nst), scheme.linear_weights()))
    return (arrays, (nst, *(a.ctypes.data for a in arrays), scheme.eps / 6.0,
                     WENO_EPS_FLOOR, BETA_K, float(scheme.downwind_limit)))
