"""The compiled WENO row kernel (``repro.numerics.native``): bitwise the
NumPy combination on every shape and scheme the sweep can hand it, NaN
for NaN, and — as chaos cases — every way of not getting a library ends
in the NumPy path with one warning and the same trajectory.
"""

import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from repro.numerics import native
from repro.numerics.eos import IdealGasEOS
from repro.numerics.fluxes import ConvectiveFlux
from repro.numerics.metrics import CartesianMetrics
from repro.numerics.state import StateLayout
from repro.numerics.weno import WenoScheme, windows
from tests.numerics import weno_oracle

ROOT = Path(__file__).resolve().parents[2]

SCHEMES = [WenoScheme(), WenoScheme(variant="symoo"),
           WenoScheme(variant="js5"), WenoScheme(downwind_limit=0.0),
           WenoScheme(eps=1e-6, downwind_limit=2.0)]


@pytest.fixture
def kernel():
    k = native.weno_rows()
    if k is None:
        pytest.skip("no compiled kernel here: " + native.status()["detail"])
    return k


def reference(scheme, fp, fm, start, nif):
    ref = scheme.combine(windows(fp, 0, start, nif))
    return scheme.combine_minus(windows(fm, 0, start, nif), out=ref, add=True)


# -- equivalence ---------------------------------------------------------------

@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: (
    f"{s.variant}-eps{s.eps:g}-limit{s.downwind_limit:g}"))
def test_rows_are_bitwise_the_numpy_combination(kernel, scheme):
    """3 and 4 stencils, limiter on and off, one interface, one column,
    a batch axis, a 3-D rest, an offset start — smooth and jump data."""
    rng = np.random.default_rng(5)
    shapes = [((6,), 0), ((6, 1), 0), ((11, 1), 2), ((9, 17), 0),
              ((12, 5, 2, 7), 1), ((38, 5, 3, 4, 6), 0)]
    for shape, start in shapes:
        nif = shape[0] - 5 - start
        for kind in ("smooth", "jump"):
            fp, fm = (1.0 + 0.1 * rng.normal(size=(2,) + shape)
                      if kind == "smooth" else
                      np.where(rng.random((2,) + shape) > 0.5, 1.0, 10.0)
                      + 0.01 * rng.normal(size=(2,) + shape))
            out = np.full((nif,) + shape[1:], np.nan)
            kernel(scheme, fp, fm, start, out)
            assert np.array_equal(out, reference(scheme, fp, fm, start, nif)), (
                shape, start, kind)


@pytest.mark.parametrize("scheme", SCHEMES[:4], ids=lambda s: (
    f"{s.variant}-limit{s.downwind_limit:g}"))
def test_nan_and_inf_windows_come_back_nan_where_numpy_says_so(kernel, scheme):
    """``np.minimum`` / ``np.maximum`` propagate NaN, a C ``a < b ? a : b``
    does not: a bad value at any position of the plus or of the minus
    window must poison exactly the interfaces it poisons in NumPy (the
    watchdog's ``nan`` fault reads ``isfinite`` of the state)."""
    rng = np.random.default_rng(9)
    base = 1.0 + 0.3 * rng.normal(size=(2, 16, 3))
    for bad in (np.nan, np.inf, -np.inf, 1e200, -1e200, 1e-200):
        for which in (0, 1):
            for row in range(16):
                f = base.copy()
                f[which, row, 1] = bad
                out = np.empty((11, 3))
                kernel(scheme, f[0], f[1], 0, out)
                with np.errstate(all="ignore"):
                    ref = reference(scheme, f[0], f[1], 0, 11)
                assert np.array_equal(np.isnan(out), np.isnan(ref)), (bad, row)
                assert np.array_equal(out, ref, equal_nan=True), (bad, row)


def test_kernel_checks_what_it_is_handed(kernel):
    ok = np.zeros((8, 4))
    out = np.zeros((3, 4))
    kernel(WenoScheme(), ok, ok, 0, out)
    for fp, fm, start, o in [
            (ok.astype(np.float32), ok, 0, out),       # dtype
            (ok, ok[:, ::2], 0, out),                  # shape
            (np.zeros((8, 8))[:, ::2], ok, 0, out),    # not contiguous
            (ok, ok, 1, out),                          # runs off the end
            (ok, ok, -1, out),
            (ok, ok, 0, np.zeros((3, 5)))]:
        with pytest.raises(ValueError, match="weno_rows"):
            kernel(WenoScheme(), fp, fm, start, o)


@pytest.mark.parametrize("dim", [2, 3])
def test_divergence_is_bitwise_either_way(kernel, dim, monkeypatch):
    """The sweep's call site: every direction of a batch of two, for a
    3-stencil and a limiter-off scheme (the version x target table runs
    the default one)."""
    layout = StateLayout(dim=dim, nspecies=1)
    eos = IdealGasEOS()
    rng = np.random.default_rng(2)
    ng = 4
    grown = tuple(6 + d + 2 * ng for d in range(dim))
    u = np.empty((layout.ncons, 2) + grown)
    u[0] = 1.0 + 0.2 * rng.random((2,) + grown)
    u[1:1 + dim] = 0.1 * rng.normal(size=(dim, 2) + grown)
    u[layout.energy] = 2.5
    metrics = CartesianMetrics([0.1] * dim)
    for scheme in (SCHEMES[2], SCHEMES[3]):
        flux = ConvectiveFlux(scheme=scheme)
        compiled = [flux.divergence(layout, eos, u, metrics, d, ng)
                    for d in range(dim)]
        with monkeypatch.context() as m:
            weno_oracle.use_numpy_combination(m)
            for d in range(dim):
                assert np.array_equal(
                    flux.divergence(layout, eos, u, metrics, d, ng),
                    compiled[d]), (scheme, d)


# -- packaging and process boundaries -----------------------------------------

def test_source_ships_as_package_data(tmp_path):
    assert (resources.files("repro.numerics") / native.SOURCE).is_file()
    subprocess.run([sys.executable, "setup.py", "--quiet", "build_py",
                    "--build-lib", str(tmp_path)], cwd=ROOT, check=True,
                   capture_output=True)
    assert (tmp_path / "repro" / "numerics" / native.SOURCE).is_file()


def test_import_builds_and_loads_nothing():
    code = ("import sys, repro, repro.core.crocco, repro.cli\n"
            "from repro.numerics import native\n"
            "assert native._kernel is native._UNRESOLVED\n"
            "assert 'subprocess' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))


def _impl_of_this_process(_):
    return native.status()["impl"]


def test_handle_is_module_state_a_spawned_worker_loads_itself(kernel):
    """Nothing picklable carries the library: a worker that starts from a
    fresh import (``spawn``) resolves its own."""
    for obj in (WenoScheme(), ConvectiveFlux()):
        assert pickle.loads(pickle.dumps(obj)) == obj
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        assert pool.map(_impl_of_this_process, [0]) == ["compiled"]


# -- chaos: every way of not getting a library --------------------------------

RUN = r"""
import hashlib, sys, warnings
import numpy as np
from repro.cases.dmr import DoubleMachReflection
from repro.core.crocco import Crocco, CroccoConfig
from repro.numerics import native
cells = tuple(int(n) for n in sys.argv[2].split(","))
sim = Crocco(DoubleMachReflection(ncells=cells, curvilinear=True),
             CroccoConfig(version="2.0", max_level=3 - len(cells),
                          max_grid_size=16, blocking_factor=8,
                          executor=sys.argv[1], workers=2))
sim.initialize()
sim.run(2)
h = hashlib.sha256()
for lev in range(sim.finest_level + 1):
    for _, fab in sim.state[lev]:
        h.update(np.ascontiguousarray(fab.whole()))
sim.close()
print(h.hexdigest(), native.status()["impl"], native.status()["cache"])
"""


def run(env, executor="serial", wait=True, cells="32,8"):
    """Two steps of the 2-D AMR deck (or, with three ``cells``, of a 3-D
    one) in a fresh process: ``(hash, impl, cache, stderr)``, or the
    ``Popen`` when not waiting."""
    keep = {k: os.environ[k] for k in ("PATH", "HOME", "CC") if k in os.environ}
    env = {**keep, "PYTHONPATH": str(ROOT / "src"), **env}
    proc = subprocess.Popen([sys.executable, "-c", RUN, executor, cells],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    return finish(proc) if wait else proc


def finish(proc):
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    assert "Traceback" not in err
    return (*out.split(), err)


def warnings_in(err):
    return [ln for ln in err.splitlines() if "RuntimeWarning" in ln]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A cache directory holding a good build, and the trajectory hash
    of the compiled path."""
    if shutil.which(os.environ.get("CC") or "cc") is None:
        pytest.skip("needs a C compiler")
    cache = tmp_path_factory.mktemp("cache")
    sha, impl, how, err = run({"XDG_CACHE_HOME": str(cache)})
    if impl != "compiled":
        pytest.skip("no compiled kernel here: " + err.strip()[-200:])
    assert how == "miss" and not warnings_in(err)
    (lib,) = (cache / "repro").glob("weno_rows-*.so")
    assert [p.name for p in (cache / "repro").iterdir()] == [lib.name]
    return cache, lib, sha


def assert_numpy_fallback(result, sha, why):
    got, impl, _, err = result
    assert (got, impl) == (sha, "numpy")
    (line,) = warnings_in(err)  # one warning, one line
    assert "compiled WENO kernel unavailable" in line and why in line


def test_warm_cache_is_a_hit_under_serial_and_pool(built):
    cache, _, sha = built
    for executor in ("serial", "pool"):
        got, impl, how, err = run({"XDG_CACHE_HOME": str(cache)}, executor)
        assert (got, impl, how) == (sha, "compiled", "hit")
        assert not warnings_in(err)


def test_3d_deck_hashes_the_same_either_way(built, tmp_path):
    cache, _, _ = built
    numpy = run({"CC": "/bin/false", "XDG_CACHE_HOME": str(tmp_path)},
                cells="32,8,8")
    assert numpy[1] == "numpy"
    for executor in ("serial", "pool"):
        got, impl, _, _ = run({"XDG_CACHE_HOME": str(cache)}, executor,
                              cells="32,8,8")
        assert (got, impl) == (numpy[0], "compiled")


def test_no_compiler_on_path(built, tmp_path):
    _, _, sha = built
    assert_numpy_fallback(
        run({"PATH": str(tmp_path), "XDG_CACHE_HOME": str(tmp_path)}),
        sha, "no C compiler")


def test_compiler_that_fails(built, tmp_path):
    _, _, sha = built
    for executor in ("serial", "pool"):
        result = run({"CC": "/bin/false", "XDG_CACHE_HOME": str(tmp_path)},
                     executor)
        if executor == "serial":
            assert_numpy_fallback(result, sha, "false exited 1")
        else:  # each process that sweeps says so once
            assert result[:2] == (sha, "numpy")
            assert 1 <= len(warnings_in(result[3])) <= 3
    assert not list(tmp_path.rglob("*.so"))


@pytest.mark.parametrize("damage", ["truncated", "garbage", "stale"])
def test_bad_cache_entry(built, tmp_path, damage):
    """A file under the right name that is not the library: cut short
    (``dlopen`` of one is a SIGBUS) or not ELF at all — caught by the
    content hash in the name — or a library built from another source
    under a name that is consistent with its bytes: it loads, and fails
    the self-check."""
    _, lib, sha = built
    bad = tmp_path / "repro" / lib.name
    bad.parent.mkdir()
    if damage == "truncated":
        bad.write_bytes(lib.read_bytes()[:4096])
    elif damage == "garbage":
        bad.write_bytes(b"not a shared object\n" * 100)
    else:
        src = tmp_path / "other.c"
        src.write_text("void weno_rows(void) {}\n")
        subprocess.run([os.environ.get("CC") or "cc", "-shared", "-fPIC",
                        str(src), "-o", str(bad)], check=True)
        key = lib.name.rsplit("-", 1)[0]
        bad = bad.rename(bad.with_name(
            f"{key}-{native._digest(bad.read_bytes())}.so"))
    why = "does not reproduce" if damage == "stale" else "is damaged"
    assert_numpy_fallback(run({"XDG_CACHE_HOME": str(tmp_path)}), sha, why)
    assert bad.exists()  # reported, not repaired behind the user's back


def test_unwritable_cache_directory(built, tmp_path):
    """The build moves to the per-user temp directory."""
    _, _, sha = built
    blocker = tmp_path / "file"
    blocker.write_text("")  # a path under a regular file: mkdir fails
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = {"XDG_CACHE_HOME": str(blocker / "cache"), "TMPDIR": str(tmp)}
    got, impl, how, err = run(env)
    assert (got, impl, how) == (sha, "compiled", "miss")
    assert not warnings_in(err) and len(list(tmp.rglob("*.so"))) == 1


def test_two_processes_race_the_first_build(built, tmp_path):
    _, lib, sha = built
    procs = [run({"XDG_CACHE_HOME": str(tmp_path)}, wait=False)
             for _ in range(2)]
    for got, impl, _, err in map(finish, procs):
        assert (got, impl) == (sha, "compiled") and not warnings_in(err)
    # libraries only (one, when the compiler is deterministic): no
    # temporary left behind
    key = lib.name.rsplit("-", 1)[0]
    assert all(p.name.startswith(key) and p.suffix == ".so"
               for p in (tmp_path / "repro").iterdir())
