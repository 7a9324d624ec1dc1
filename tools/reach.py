"""Which functions of ``repro`` the runs a user makes call, and which not.

The hook (:func:`install`) is a ``sys.setprofile`` function that writes
each code object of a file under the repository the first time it is
entered from a given caller — its file, qualified name and calling file —
with one unbuffered ``os.write``: a forked child that ends in ``os._exit``
loses nothing, and a fork keeps the hook.  A module's body is its
``<module>`` code, so the same records say which modules a run imported.
A process picks the hook up from the ``sitecustomize`` module that
:func:`hooked_env` puts first on ``PYTHONPATH``, and records into the file
named by ``$REACH_OUT``.

The reference set (:func:`reference`) is every module-level function and
class method under ``src/repro``, read from the AST; a nested function is
its enclosing function's.  :func:`check` reads the two against an
allow-list (``ALLOWED`` of ``tests/core/test_reach.py``) whose entries each
carry one reason tag (:data:`TAGS`).

    PYTHONPATH=src python tools/reach.py          # the deck pass tier-1 runs
    PYTHONPATH=src python tools/reach.py --full   # every entry point

The deck pass (:func:`deck_pass`) runs every deck on ``host``, ``device``
and ``fused``, a checkpoint -> restart -> plotfile round, ``--record
--profile`` and the report on it, a host ``--record`` run, and ``python -m
repro -h``.  ``--full`` adds ``tools/*`` (``render_plotfile`` on a 1-D and
a 2-D plotfile), every example at a small size, the paper-figure recorders
under ``--benchmark-disable`` (pytest-benchmark clears the profile
function while it times), a 2-worker ``python -m repro.serve`` session and
one round of the whole-deck benchmark, each recorded under its own path.
It prints DESIGN.md's per-module table and exits 1 on a function no run
calls that no entry names, on an entry a run calls, or on a ``caller:``
entry whose path runs no such function.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import os
import pkgutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DECKS = sorted(ROOT.glob("examples/decks/*.inputs")) + [
    ROOT / "benchmarks/e2e/decks/dmr3d_uniform.inputs"]

#: why a function that no run calls stays: one starts each allow-list entry
TAGS = ("reference", "seam", "hook", "fault", "fallback", "protocol",
        "caller")


# -- the hook -----------------------------------------------------------------
def install(out=None) -> None:
    """Record each code object under the repository the first time it runs."""
    out = out or os.environ.get("REACH_OUT")
    if not out:
        return
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    prefix, seen = str(ROOT) + os.sep, set()

    def hook(frame, event, arg):
        if event == "call":
            code, back = frame.f_code, frame.f_back
            caller = back.f_code if back is not None else None
            if (code, caller) not in seen:
                seen.add((code, caller))
                if code.co_filename.startswith(prefix):
                    os.write(fd, f"{code.co_filename}\t{code.co_qualname}\t"
                                 f"{getattr(caller, 'co_filename', '')}\n"
                             .encode())

    sys.setprofile(hook)
    threading.setprofile(hook)
    os.register_at_fork(after_in_child=lambda: sys.setprofile(hook))


def hooked_env(out) -> dict:
    """The environment of a process that records into ``out``."""
    site = Path(out).parent / "reach-site"
    site.mkdir(exist_ok=True)
    (site / "sitecustomize.py").write_text(
        f"import sys\nsys.path.insert(0, {str(ROOT / 'tools')!r})\n"
        "import reach\nsys.path.pop(0)\nreach.install()\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(site), str(SRC), str(ROOT)])
    env["REACH_OUT"] = str(out)
    return env


# -- what ran, and what exists -------------------------------------------
def module_of(path) -> str:
    """``src/repro/amr/box.py`` -> ``repro.amr.box``."""
    parts = Path(path).resolve().relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def read_records(paths) -> tuple:
    """``(called, imported, files, calls)`` from hook records: the
    ``module.qualname`` of every function under ``src/`` entered, the
    modules whose code ran, every repository file (relative path) whose
    code ran, and ``(function, calling file)`` pairs."""
    called, imported, files, calls = set(), set(), set(), set()
    root = str(ROOT) + os.sep
    for path in paths:
        for line in Path(path).read_text().splitlines():
            filename, qualname, caller = line.split("\t")
            rel = Path(filename).relative_to(ROOT)
            files.add(rel.as_posix())
            if rel.parts[0] == "src":
                name = f"{module_of(filename)}.{qualname}"
                imported.add(module_of(filename))
                called.add(name)
                calls.add((name, caller[len(root):] if caller.startswith(
                    root) else caller))
    return called, imported, files, calls


def reference(src: Path = SRC) -> dict:
    """``{module.qualname: (module, lines)}`` for every module-level function
    and class method under ``src`` (a property's getter and setter are one
    name); lines count decorators and docstrings."""
    out = {}

    def visit(body, module, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                name = f"{module}.{prefix}{node.name}"
                lines = out.get(name, (module, 0))[1]
                out[name] = (module, lines + node.end_lineno - first + 1)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, module, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.If, ast.Try)) and not prefix:
                visit(node.body + node.orelse + getattr(node, "finalbody", []),
                      module, prefix)

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text()).body, module_of(path), "")
    return out


def modules() -> set:
    """Every module of the package."""
    import repro
    return {"repro"} | {m.name for m in pkgutil.walk_packages(
        repro.__path__, "repro.")}


# -- the allow-list -------------------------------------------------------
def tag(reason: str) -> str:
    """The tag an allow-list reason starts with (``caller: p`` -> caller)."""
    return reason.split(":", 1)[0].strip()


def caller_path(reason: str) -> str:
    """The path of a ``caller: <path> ...`` reason."""
    return reason.split(":", 1)[1].split()[0]


def listed(module: str, allowed: dict):
    """The allow-list key that names ``module`` whole (its own entry before
    a wildcard over it), or ``None``."""
    if module in allowed:
        return module
    for key in allowed:
        if key.endswith(".*") and (module + ".").startswith(key[:-1]):
            return key
    return None


def check(ref: dict, called: set, imported: set, allowed: dict) -> dict:
    """What a pass found against the allow-list: ``unreached_modules`` (no
    run imported them, no entry names them), ``unreached`` (functions of
    an imported, unlisted module that no run called and no entry names),
    ``stale`` (entries a run reached; a ``fallback`` runs or not with
    the machine)."""
    every = modules()
    return {
        "unreached_modules": sorted(
            m for m in every - imported if listed(m, allowed) is None),
        "unreached": sorted(
            f for f, (module, _) in ref.items()
            if module in imported and listed(module, allowed) is None
            and f not in called and f not in allowed),
        "stale": sorted(
            k for k in allowed if tag(allowed[k]) != "fallback"
            and (k in called or (k in every and k in imported))),
    }


def untagged(allowed: dict) -> list:
    """Entries whose reason does not start with exactly one tag."""
    return sorted(k for k, why in allowed.items()
                  if tag(why) not in TAGS
                  or sum(why.count(t + ":") for t in TAGS) != 1)


def caller_problems(allowed: dict) -> list:
    """``caller:`` entries whose path does not exist or never names the
    function (the static half of the caller check): a module by its
    dotted name, a function by its own, a constructor by its class's."""
    out, every = [], modules()
    for key, why in sorted(allowed.items()):
        if tag(why) != "caller":
            continue
        path = ROOT / caller_path(why)
        name = key.removesuffix(".*")
        if name not in every:
            name = key.removesuffix(".__init__").rsplit(".", 1)[-1]
        if not path.exists():
            out.append(f"{key}: {caller_path(why)} does not exist")
        elif name not in path.read_text():
            out.append(f"{key}: {caller_path(why)} never names {name!r}")
    return out


def load_allowed() -> dict:
    spec = importlib.util.spec_from_file_location(
        "test_reach", ROOT / "tests/core/test_reach.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.ALLOWED


# -- the runs -----------------------------------------------------------------
DECK_RUNS = """
import contextlib, io, runpy, sys
from repro.cli import main, run_deck
from repro.numerics import native
from repro.report import main as report
work, decks = sys.argv[1], sys.argv[2:]
with contextlib.redirect_stdout(io.StringIO()):
    for target in ("host", "device", "fused"):
        for deck in decks:
            assert main([deck, "--steps", "2", "--backend", target]) == 0, (
                deck, target)
    rec, chk, plt = (f"{work}/{name}" for name in ("rec", "chk", "plt"))
    assert main([decks[0], "--steps", "2", "--record", rec,
                 "--profile"]) == 0
    assert report([rec]) == 0
    sod = next(deck for deck in decks if deck.endswith("sod.inputs"))
    assert main([sod, "--steps", "2", "--record", f"{work}/rec_host"]) == 0
    assert run_deck(decks[0], {"steps": "2", "checkpoint": chk}) == 0
    assert run_deck(decks[0], {"steps": "3", "restart": chk,
                               "plotfile": plt}) == 0
    sys.argv = ["repro", "-h"]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
print(native.status()["impl"])
"""


def run_hooked(out, argv, cwd, timeout=600, check_rc=True):
    """Run ``argv`` with the hook recording into ``out``."""
    done = subprocess.run(argv, cwd=cwd, env=hooked_env(out),
                          capture_output=True, text=True, timeout=timeout)
    if check_rc and done.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, argv))} exited "
                           f"{done.returncode}:\n{done.stderr[-3000:]}")
    return done


def deck_pass(work: Path) -> tuple:
    """The deck pass in one process: ``(record file, compiled)``, the
    second False when the sweeps ran on NumPy (no compiler, no cached
    library), where the compiled path's functions cannot be reached."""
    out = work / "decks.reach"
    done = run_hooked(out, [sys.executable, "-c", DECK_RUNS, str(work),
                            *map(str, DECKS)], cwd=work)
    return out, done.stdout.split()[-1] == "compiled"


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _serve_session(work: Path, out: Path) -> None:
    """A 2-worker service: two waited runs, the read endpoints, a cancel,
    the SIGTERM drain, and the report of a service run."""
    port = _free_port()
    url = f"http://127.0.0.1:{port}"
    py = sys.executable
    server = subprocess.Popen(
        [py, "-m", "repro.serve", "--root", "svc", "--port", str(port),
         "--workers", "2"], cwd=work, env=hooked_env(out),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        # wait for the listening line: no request races the server's start
        for line in server.stdout:
            if "listening" in line:
                break
        client = [py, "-m", "repro.serve.client", "--url", url]
        run_hooked(out, client + ["stats"], work)
        for deck in ("sod", "dmr"):
            run_hooked(out, client + [
                "submit", str(ROOT / f"examples/decks/{deck}.inputs"),
                "--steps", "3", "--trace", "--wait", "--timeout", "300"], work)
        for argv in (["list"], ["status", "r00001"], ["metrics", "r00001"]):
            run_hooked(out, client + argv, work)
        long_run = ["submit", str(ROOT / "examples/decks/dmr.inputs"),
                    "--steps", "4000"]
        run_hooked(out, client + long_run, work)
        run_hooked(out, client + ["cancel", "r00003"], work, check_rc=False)
        run_hooked(out, [py, "-m", "repro.report", "svc/runs/r00001"], work)
        # a run in flight when SIGTERM arrives drains to a checkpoint
        run_hooked(out, client + long_run, work)
        for _ in range(300):
            if '"running"' in run_hooked(out, client + ["status", "r00004"],
                                         work).stdout:
                break
            time.sleep(0.2)
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()


def full_pass(work: Path) -> dict:
    """Every entry point, each recorded under its path: ``{path: file}``."""
    py = sys.executable
    runs = {"src/repro/cli.py": deck_pass(work)[0]}

    def run(label, argv, **kw):
        out = work / (label.replace("/", "_") + ".reach")
        run_hooked(out, argv, cwd=work, **kw)
        runs[label] = out

    plt2 = work / "plt"          # the 2-D plotfile of the deck pass
    run_hooked(runs["src/repro/cli.py"], [
        py, "-m", "repro", str(ROOT / "examples/decks/sod.inputs"),
        "--steps", "2", "--plotfile", str(work / "plt1d")], cwd=work)
    for plotfile in (plt2, work / "plt1d"):
        run("tools/render_plotfile.py", [
            py, str(ROOT / "tools/render_plotfile.py"), str(plotfile),
            "--out", str(work / "img.pgm"), "--log"])
    run("tools/convergence.py", [py, str(ROOT / "tools/convergence.py"),
                                 "8", "0.05"])
    run("tools/lint_option_table.py",
        [py, str(ROOT / "tools/lint_option_table.py")])
    run("tools/check_vectorised.py",
        [py, str(ROOT / "tools/check_vectorised.py")], check_rc=False)
    small = {"dmr_amr.py": ["32", "0.002"], "port_validation.py": ["32",
                                                                    "0.002"],
             "quickstart.py": ["32"], "reacting_ignition.py": ["32", "10"],
             "summit_scaling.py": ["--small", "--record",
                                   str(work / "summit")]}
    for path in sorted(ROOT.glob("examples/*.py")):
        run(f"examples/{path.name}", [py, str(path), *small.get(path.name,
                                                                 [])])
    run("examples/summit_scaling.py",
        [py, "-m", "repro.report", str(work / "summit")])
    for path in sorted(ROOT.glob("benchmarks/bench_*.py")):
        run(f"benchmarks/{path.name}", [
            py, "-m", "pytest", str(path), "-q", "-p", "no:cacheprovider",
            "--benchmark-disable"], timeout=900)
    out = work / "serve.reach"
    _serve_session(work, out)
    runs["src/repro/serve/__main__.py"] = out
    run("benchmarks/e2e/run.py", [
        py, str(ROOT / "benchmarks/e2e/run.py"), "--repeats", "1",
        "--out", str(work / "e2e.json")], timeout=900)
    return runs


def caller_runs(allowed: dict, runs: dict) -> list:
    """``caller:`` entries whose path runs no such function.  The function
    must be called from code in that path, or by a run of it when the pass
    runs the path itself; a module must be imported by a run of its path,
    or, where the path is a module that imports it, by the pass.  A path
    outside ``src/`` that only ran under another entry point and wraps by
    name what it times (``benchmarks/e2e/spans.py``) passes when its code
    ran: the static check has found the name in it."""
    records = {label: read_records([f]) for label, f in runs.items()}
    calls = set().union(*(r[3] for r in records.values()))
    ran = set().union(*(r[2] for r in records.values()))
    imported = set().union(*(r[1] for r in records.values()))
    every = modules()
    out = []
    for key, why in sorted(allowed.items()):
        if tag(why) != "caller":
            continue
        path, module = caller_path(why), key.removesuffix(".*")

        def under(mods):
            return any(m == module or m.startswith(module + ".")
                       for m in mods)
        if module in every:
            hit = (under(records[path][1]) if path in records
                   else path in ran and under(imported))
        else:
            hit = ((key, path) in calls
                   or path in records and key in records[path][0]
                   or path not in records and not path.startswith("src/")
                   and path in ran)
        if not hit:
            out.append(f"{key}: {path} runs no such function")
    return out


def table(ref: dict, called: set, allowed: dict) -> str:
    """DESIGN.md's per-module table of the functions no run calls."""
    rows, whole = [], 0
    by_module = {}
    for f, (module, _) in ref.items():
        by_module.setdefault(module, []).append(f)
    for module in sorted(by_module):
        names = by_module[module]
        missing = [f for f in names if f not in called]
        if not missing:
            whole += 1
            continue
        tags = {}
        for f in missing:
            why = allowed.get(f) or allowed.get(listed(module, allowed), "?")
            tags.setdefault(tag(why), []).append(
                f"`{f[len(module) + 1:]}`")
        cell = "; ".join(f"{t}: {', '.join(fs)}" for t, fs in tags.items())
        rows.append(f"| `{module}` | {len(names) - len(missing)}/"
                    f"{len(names)} | {cell} |")
    head = "| module | functions run / all | not reached by a run |"
    return "\n".join([head, "|---|---:|---|", *rows,
                      f"| the other {whole} modules | all | — |"])


def verdict(runs: dict, allowed: dict, full: bool) -> tuple:
    """``(lines, failed)``: what the records of ``runs`` (``{path: file}``)
    say against ``allowed``."""
    ref = reference()
    called, imported = read_records(runs.values())[:2]
    found = check(ref, called, imported, allowed)
    problems = untagged(allowed) + caller_problems(allowed)
    if full:
        # every module counts, and a whole-module entry only when it gives
        # a reason a run of its caller cannot
        problems += caller_runs(allowed, runs)
        found["unreached"] = sorted(
            f for f, (module, _) in ref.items()
            if f not in called and f not in allowed
            and tag(allowed.get(listed(module, allowed), "caller:"))
            == "caller")
        found["stale"] = [k for k in found["stale"]
                          if tag(allowed[k]) != "caller"]
    n_run = sum(f in called for f in ref)
    nlines = sum(n for f, (_, n) in ref.items() if f not in called)
    lines = [f"{n_run} of {len(ref)} functions run; {len(ref) - n_run} "
             f"({nlines} lines) reached by no run of this pass"]
    if full:
        lines.append(table(ref, called, allowed))
    lines += [f"{what}: {item}" for what, items in found.items()
              for item in items]
    lines += [f"allow-list: {line}" for line in problems]
    return lines, bool(problems or any(found.values()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--full", action="store_true",
                        help="every entry point, not only the deck pass")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        runs = (full_pass(work) if args.full
                else {"src/repro/cli.py": deck_pass(work)[0]})
        lines, failed = verdict(runs, load_allowed(), args.full)
    print("\n".join(lines))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
