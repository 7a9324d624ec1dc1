"""The compiled kernels of the WENO sweep: built on first use, loaded
through ctypes.

``weno_sweep.c`` (beside this file, shipped as package data) holds one
direction of the sweep as one call (``weno_sweep``; a stage's first
direction computes the primitives, the others read them) and its two
halves: the pointwise pre-pass (:func:`flux_split`: Lax-Friedrichs
``alpha``, curvilinear flux and split, stored sweep axis first) and the
row kernel (:func:`weno_rows`:
:meth:`~repro.numerics.weno.WenoScheme.combine` of the plus windows plus
its mirror image on the minus windows) — and ComputeDt's rate
(``max_rate``), all in NumPy's operation order: bitwise the reference,
5-15x faster.  :func:`kernels` hands them out — the sweep and the rate
bound once per stage or call site — or ``None`` (after **one**
``RuntimeWarning``) when no library can be had; the NumPy code then runs
and the numbers are the same.  Which a process got is :func:`status`.

The library is built with ``$CC`` (default ``cc``) into
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``; a per-user temp
directory when that is unwritable) through a temp directory and
``os.replace``, under a name keyed by the source, the flags, the compiler
binary and the CPU it is tuned for — and by the hash of the library's own
bytes, checked before ``dlopen``; a passed self-check is stamped beside
it.  Its handle, module state, is resolved once per process by the first
simulation or sweep (never at ``import repro``) and never pickled: a pool
or fleet worker loads its own.
"""

from __future__ import annotations

import ctypes
import math
import os
import warnings
from contextlib import suppress
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Dict, NamedTuple, Optional

import numpy as np

from repro.numerics.eos import PRESSURE_FLOOR, IdealGasEOS
from repro.numerics.state import StateLayout
from repro.numerics.weno import (BETA_K, NO_SCRATCH, WENO_EPS_FLOOR,
                                 WenoScheme, stencil_tables, windows)

SOURCE = "weno_sweep.c"
PREFIX = SOURCE[:-2]

#: never ``-ffast-math``, and no contraction of ``a * b + c`` into an
#: FMA: the kernels are bitwise the NumPy code only in IEEE order (that
#: ``sqrt`` need not set ``errno`` changes no bit and lets it vectorise)
CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno",
          "-fPIC", "-shared")

#: the sweep's scratch roles and their index in :func:`sweep_shapes`
ROLES = (("fplus", 1), ("fminus", 1), ("f_iface", 2), ("prims", 3))

_UNRESOLVED = object()
_kernel = _UNRESOLVED
_status: Dict[str, str] = {}


class Kernels(NamedTuple):
    """The library's entry points, each behind a wrapper that checks what
    it is handed and raises ``ValueError`` before a pointer is passed."""

    #: ``f(u, m, J, direction, ng, gamma, distributed, fp, fm) -> alpha
    #: ([B])``: :func:`~repro.numerics.fluxes.lax_friedrichs_split` for an
    #: ideal gas of one species, on arrays :func:`split_takes`
    flux_split: Callable
    #: ``f(scheme, fp, fm, start, out)``: interface ``j`` of ``out (nif,
    #: ...)`` becomes ``combine`` of rows ``start + j .. start + j + 5`` of
    #: the sweep-major ``fp (n, ...)`` plus ``combine_minus`` of ``fm``'s
    weno_rows: Callable
    #: ``f(scheme, u, m, J, direction, ng, gamma, distributed, scratch,
    #: out=None, add=False)``: pre-pass, rows and ``-(f[i+1] - f[i]) / J``
    #: of one direction bound into a call of no arguments, which writes
    #: (``add``: adds to) ``call.out`` (a new ``(dim + 2, [B,] *valid)`` by
    #: default) and keeps every array it has an address of in
    #: ``call.holds``; ``None``, nothing touched, unless :func:`split_takes`
    #: — or, for a stage's tuple of directions and their ``m``, their calls:
    #: the first computes the primitives (role ``prims``), the rest read them
    bind_sweep: Callable
    #: ``f(u, m, J, eos)``: ComputeDt's rate of ``u`` bound into a call of
    #: no arguments returning each member's (``[B]``; a float for one
    #: patch), ``m`` every direction's, keeping every array it has an
    #: address of in ``call.holds``; ``None`` for an input it does not take
    bind_rate: Callable


def kernels() -> Optional[Kernels]:
    """This process's compiled kernels, or ``None`` (after one warning)."""
    global _kernel
    if _kernel is _UNRESOLVED:
        _kernel = None  # what the self-check's reference sweeps see
        try:
            _kernel = _load()
        except Exception as exc:  # whatever broke, the NumPy path runs
            why = " ".join(str(exc).split())[:200] or type(exc).__name__
            _status.update(impl="numpy", cache="-", detail=why)
            warnings.warn(f"compiled WENO kernel unavailable ({why}); "
                          "running the NumPy sweep", RuntimeWarning,
                          stacklevel=3)
    return _kernel


def status() -> Dict[str, str]:
    """What the sweeps of this process run (resolved now if none has
    yet): ``impl`` ``compiled | numpy``, ``cache`` ``hit | miss | -``,
    ``detail`` (the compiler and flags, or why not) and ``line``, the
    ``kernel.weno_impl = ...`` line of the CLI and the run report."""
    kernels()
    s = dict(_status)
    cache = (f"sweep; cache {s['cache']}; self-check {s['check']}; "
             if s["impl"] == "compiled" else "")
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
        lib = cache / f"{PREFIX}-{key}-{_digest(out.read_bytes())}.so"
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
            found = sorted(cache.glob(f"{PREFIX}-{key}-*.so"))
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


def _load() -> Kernels:
    path, cache, built_with = _library()
    lib = ctypes.CDLL(str(path))
    p, n, d, i = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double, ctypes.c_int
    lib.weno_rows.argtypes = [p, p, p, n, n, n, i, p, p, p, p, d, d, d, d]
    lib.flux_split.argtypes = [p, p, n, p, n * 4, i, i, n, d, d, i, p, n, p, p,
                               p, i]
    lib.weno_sweep.argtypes = [p, p, n, p, n, n, n, n, i, i, n, d, d, i, p, p,
                               p, i, p, p, p, p, d, d, d, d, p, i, p, i]
    lib.max_rate.argtypes = [p, p * 3, p, n * 4, n * 11, i, d, d, p]
    for f in (lib.weno_rows, lib.flux_split, lib.weno_sweep, lib.max_rate):
        f.restype = None

    def rows(scheme: WenoScheme, fp: np.ndarray, fm: np.ndarray,
             start: int, out: np.ndarray) -> None:
        nif = out.shape[0]
        if not (fp.shape == fm.shape and fp.shape[1:] == out.shape[1:]
                and 0 <= start and start + nif + 5 <= fp.shape[0]
                and _plain(fp, fm, out)):
            raise ValueError("weno_rows wants float64 C-contiguous (n, ...) "
                             "fluxes and (nif, ...) interfaces with "
                             "start + nif + 5 <= n")
        lib.weno_rows(fp.ctypes.data, fm.ctypes.data, out.ctypes.data, nif,
                      math.prod(out.shape[1:]), start, *_scheme_args(scheme)[1])

    def split(u: np.ndarray, m: np.ndarray, J: np.ndarray, direction: int,
              ng: int, gamma: float, distributed: bool, fp: np.ndarray,
              fm: np.ndarray) -> np.ndarray:
        dim = len(m)
        grid, batch = u.shape[-dim:], u.shape[1:-dim]
        shapes = sweep_shapes(u.shape, dim, direction, ng, least=0)
        if not (split_takes(u, m, J) and shapes
                and fp.shape == fm.shape == shapes[1] and _plain(fp, fm)):
            raise ValueError("flux_split wants float64 u (dim + 2, [B,] "
                             "*grown), m and J of its shape, C-contiguous "
                             "u, J and (n, dim + 2, [B,] *valid) fp, fm")
        alpha, prims = np.empty(batch), np.empty(shapes[3])
        lib.flux_split(u.ctypes.data, m.ctypes.data, m.strides[0] // 8,
                       J.ctypes.data,
                       # 2-D is 3-D with one plane
                       (n * 4)(*(batch or (1,)), *(1,) * (3 - dim), *grid),
                       dim, direction + 3 - dim, ng, gamma, PRESSURE_FLOOR,
                       distributed, alpha.ctypes.data, 1, fp.ctypes.data,
                       fm.ctypes.data, prims.ctypes.data, True)
        return alpha

    types = lib.weno_sweep.argtypes
    flag, axis = (i(0), i(1)), (i(0), i(1), i(2))  # never written to

    def bind(scheme: WenoScheme, u: np.ndarray, m, J: np.ndarray,
             direction, ng: int, gamma: float, distributed: bool,
             scratch, out: Optional[np.ndarray] = None, add: bool = False):
        stage = isinstance(direction, tuple)  # a stage's order, m theirs
        order, ms = (direction, m) if stage else ((direction,), (m,))
        if not all([split_takes(u, x, J) for x in ms]):
            return None
        dim, res = len(ms[0]), out
        # each direction's roles at its shapes, the largest last (the split
        # fluxes and the interfaces are largest along the shortest axis):
        # every call points at the last views, which every direction fits
        # in — of a cache, the buffer its largest request left
        for shapes in sorted([sweep_shapes(u.shape, dim, d, ng) for d in order],
                             key=lambda s: math.prod(s[1]) if s else -1):
            if shapes and res is None:
                res = np.empty(shapes[0])
            got = shapes and [scratch.get(r, shapes[k]) for r, k in ROLES]
            if not (got and res.shape == shapes[0] and _plain(res, *got)
                    and [a.shape for a in got] == [shapes[k] for _, k in ROLES]):
                raise ValueError("weno_sweep wants a grid direction, ng >= 3 "
                                 "ghost cells around valid ones, a float64 "
                                 "C-contiguous (dim + 2, [B,] *valid) out "
                                 "and scratch of the shapes it asks for")
        tables, scheme_args = _scheme_args(scheme)
        # converted once per stage: a call passes ctypes objects through
        # as they are; per direction its metrics, axis, whether it adds
        # and whether it fills the primitives (the first) or reads them
        args = [*map(type.__call__, types, (
            u.ctypes.data, 0, 0, J.ctypes.data, *(u.shape[1:-dim] or (1,)),
            *(1,) * (3 - dim), *u.shape[-dim:], dim, 0, ng, gamma,
            PRESSURE_FLOOR, distributed,
            *[a.ctypes.data for a in got[:3]])), *scheme_args,
            p(res.ctypes.data), 0, p(got[3].ctypes.data), 0]
        calls = []
        for k, (d, x) in enumerate(zip(order, ms)):
            args[1:3] = p(x.ctypes.data), n(x.strides[0] // 8)
            args[9], args[-3], args[-1] = (axis[d + 3 - dim],
                                           flag[bool(add or k)], flag[not k])
            calls.append(partial(lib.weno_sweep, *args))
            calls[-1].out, calls[-1].holds = res, (u, x, J, *got, res, *tables)
        return calls if stage else calls[0]

    def bind_rate(u: np.ndarray, m, J: np.ndarray, eos):
        # an ideal gas's float64 u (dim + 2, [B,] *cells), J of its cells
        # and each m[d] (dim, ...) of them, of one strides; unit-stride rows
        dim, nu = len(m), u.ndim
        st = (*u.strides, *m[0].strides, *J.strides)
        if not (type(eos) is IdealGasEOS and dim in (2, 3) and u.size > 0
                and len(u) == dim + 2 and u.ndim in (dim + 1, dim + 2)
                and {(x.shape, x.strides, x.dtype) for x in m}
                == {((dim, *u.shape[1:]), m[0].strides, u.dtype)}
                and J.shape == u.shape[1:] and u.dtype == J.dtype == np.float64
                and u.strides[-1] == J.strides[-1] == m[0].strides[-1] == 8
                and not any([s % 8 for s in st])):
            return None
        # element strides of a member axis and of the outer two of three
        # grid axes: 0 for one patch's member and for 2-D's one plane
        one, st = nu == dim + 1, [s // 8 for s in st]
        pad, k = (0,) * (one + 3 - dim), 2 - one  # k: u's axes before grid

        def ax(s, k):
            return [*s[:k], *pad, *s[k:-1]]
        res = np.empty(u.shape[1:-dim] or 1)
        # converted once: a call passes ctypes objects through as they are
        call = partial(
            lib.max_rate, p(u.ctypes.data), (p * 3)(*[x.ctypes.data for x in m]),
            p(J.ctypes.data), (n * 4)(*res.shape, *(1,) * (3 - dim),
                                      *u.shape[-dim:]),
            (n * 11)(*ax(st[:nu], k), *ax(st[nu:2 * nu], k),
                     *ax(st[2 * nu:], k - 1)),
            i(dim), d(eos.gamma), d(PRESSURE_FLOOR), p(res.ctypes.data))

        def rates():
            call()
            return float(res[0]) if one else res.copy()
        rates.holds = (u, *m, J, res)
        return rates

    k = Kernels(split, rows, bind, bind_rate)
    # checked once per library: a pass leaves an empty stamp beside it,
    # named by its bytes, this NumPy and the code the check runs
    stamp = path.with_name(f"{path.stem}-{np.__version__}-" + _digest(*(
        Path(__file__).with_name(f"{m}.py").read_bytes()
        for m in ("native", "fluxes", "weno", "eos", "state", "cfl")))
        + ".checked")
    check = "stamped" if stamp.is_file() else "run"
    if check == "run":
        _self_check(k, path)
        with suppress(OSError):  # unwritable: checked again next time
            stamp.touch()
    _status.update(impl="compiled", cache=cache, check=check, detail=built_with)
    return k


def _plain(*arrays: np.ndarray) -> bool:
    for a in arrays:  # (a loop: a generator is three calls per array)
        if a.dtype != np.float64 or not a.flags.c_contiguous:
            return False
    return True


def split_takes(u: np.ndarray, m: np.ndarray, J: np.ndarray) -> bool:
    """Whether :func:`flux_split` takes these arrays (the sweep asks; the
    call raises ``ValueError``): float64 ``u (dim + 2, [B,] *grown)`` and
    ``J`` and every ``m[j]`` of its shape, C-contiguous — of the strides
    of ``m`` only the component's is free, because only then is
    ``einsum``'s summation order the one the C code has."""
    dim = len(m)
    return (dim in (2, 3) and len(u) == dim + 2
            and u.ndim in (dim + 1, dim + 2) and _plain(u, J)
            and m.shape[1:] == J.shape == u.shape[1:] and _plain(m[0])
            and m.strides[0] % 8 == 0)


def sweep_shapes(shape: tuple, dim: int, direction: int, ng: int,
                 least: int = 3):
    """``(out, fplus / fminus, f_iface, prims)`` shapes of one direction
    of the sweep of a ``u`` of ``shape``, ``None`` for a call it refuses
    (``ng < least`` ghost cells, no valid cell)."""
    grid, batch = shape[-dim:], shape[1:-dim]
    rest = [g - 2 * ng for g in grid]
    if not (0 <= direction < dim and ng >= least and min(rest) > 0):
        return None
    out = (dim + 2, *batch, *rest)
    nv = rest.pop(direction)
    return (out, (nv + 2 * ng, dim + 2, *batch, *rest),
            (nv + 1, dim + 2, *batch, *rest), (dim + 1, *shape[1:]))



def _self_check(k: Kernels, lib: Path) -> None:
    """One window of a jump (cap and limiter both active) through the row
    kernel and one small 2-D state with a jump through the whole sweep —
    pre-pass, rows, difference; both sweep axes bound as a stage (a new
    ``out`` and the primitives, then an accumulated one reading them),
    both energy forms — and through ComputeDt's rate on strided views,
    against the NumPy code (no library is resolved while this runs): a
    library that is not this source's fails here."""
    from types import SimpleNamespace

    from repro.numerics.cfl import local_max_rate
    from repro.numerics.fluxes import ConvectiveFlux

    x = np.arange(2 * 9 * 7, dtype=np.float64).reshape(2, 9, 7)
    fp, fm = np.where(np.sin(x) > 0.0, 1.0, 10.0) + 0.1 * np.cos(7.0 * x)
    got, scheme, eos = np.empty((3, 7)), WenoScheme(), IdealGasEOS()
    k.weno_rows(scheme, fp, fm, 1, got)
    ref = scheme.combine(windows(fp, 0, 1, 3))
    scheme.combine_minus(windows(fm, 0, 1, 3), out=ref, add=True)
    if not np.array_equal(got, ref):
        raise RuntimeError(f"{lib} does not reproduce WenoScheme.combine")
    u = np.stack([fp, fm, 0.1 * fp, 30.0 + fm])
    ms = 0.1 * np.stack([fm, 2.0 + fp, 1.0 + fp, fm]).reshape(2, 2, 9, 7)
    metrics = SimpleNamespace(m=ms.__getitem__, jacobian=lambda: fp)
    for form in ("fused", "distributed"):
        ref = None
        for d in (0, 1):
            ref = ConvectiveFlux(scheme, form).divergence(
                StateLayout(dim=2), eos, u, metrics, d, 3, out=ref)
        calls = k.bind_sweep(scheme, u, tuple(ms), fp, (0, 1), 3, eos.gamma,
                             form == "distributed", NO_SCRATCH)
        for call in calls:
            call()
        if not np.array_equal(call.out, ref):
            raise RuntimeError(f"{lib} does not reproduce the sweep")
    v = (Ellipsis, slice(1, -1), slice(2, -1))
    ref = local_max_rate(StateLayout(dim=2), eos, u[v], SimpleNamespace(
        m=lambda d: ms[d][v], jacobian=lambda: fp[v]))
    if k.bind_rate(u[v], [x[v] for x in ms], fp[v], eos)() != ref:
        raise RuntimeError(f"{lib} does not reproduce ComputeDt")


@lru_cache(maxsize=None)
def _scheme_args(scheme: WenoScheme) -> tuple:
    """The scheme's side of the C signature; the arrays stay referenced
    here for as long as their addresses are in use."""
    nst = scheme.n_stencils
    arrays = tuple(np.ascontiguousarray(a, dtype=np.float64)
                   for a in (*stencil_tables(nst), scheme.linear_weights()))
    p, d = ctypes.c_void_p, ctypes.c_double  # converted once
    return (arrays, (ctypes.c_int(nst), *(p(a.ctypes.data) for a in arrays),
                     *map(d, (scheme.eps / 6.0, WENO_EPS_FLOOR, BETA_K,
                              float(scheme.downwind_limit)))))
