"""Every module of ``repro`` is reached by a run, or is named here with
the entry point that reaches it.

One subprocess does what a user of the deck CLI does: each
``examples/decks`` deck and the 3-D benchmark deck for two steps, one
``--record --profile`` run, and the run report on that record.  Any
module of the package it did not import is a module only tests import;
it fails this test until a run reaches it or it is deleted.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[2]
DECKS = sorted(ROOT.glob("examples/decks/*.inputs")) + [
    ROOT / "benchmarks/e2e/decks/dmr3d_uniform.inputs"]

#: modules no deck run imports, each with the entry point that does
ALLOWED = {
    "repro.__main__": "python -m repro (the runs call repro.cli.main)",
    # (repro.serve.chaos is the fault injector of the service chaos suites)
    "repro.serve.*": "python -m repro.serve",
    # Layer B, the simulated Summit: the package imports the first four
    "repro.perfmodel": "examples/summit_scaling.py",
    "repro.perfmodel.calibration": "examples/summit_scaling.py",
    "repro.perfmodel.decomposition": "examples/summit_scaling.py",
    "repro.perfmodel.execution": "examples/summit_scaling.py",
    "repro.perfmodel.scaling": "examples/summit_scaling.py",
    "repro.perfmodel.trace_export": "examples/summit_scaling.py --record",
    "repro.perfmodel.ledger_pricing": "none yet: ROADMAP item 8 prices a "
                                      "run's ledger with it",
    "repro.core.diagnostics": "none yet: ROADMAP item 7(b) wires it in",
}

RUNS = """
import contextlib, io, json, sys
from repro.cli import main
from repro.report import main as report
decks, record = sys.argv[1:-1], sys.argv[-1]
with contextlib.redirect_stdout(io.StringIO()):
    for deck in decks:
        assert main([deck, "--steps", "2"]) == 0, deck
    assert main([decks[0], "--steps", "2", "--record", record,
                 "--profile"]) == 0
    assert report([record]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


def allowed(name):
    return any(name == key or (key.endswith(".*")
                               and (name + ".").startswith(key[:-1]))
               for key in ALLOWED)


def test_every_module_is_reached_by_a_run_or_allowed(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", RUNS, *map(str, DECKS), str(tmp_path / "rec")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    reached = set(json.loads(out.stdout.splitlines()[-1]))
    modules = {m.name for m in pkgutil.walk_packages(repro.__path__,
                                                     "repro.")}
    unreached = sorted(m for m in modules - reached if not allowed(m))
    assert not unreached, f"imported only by tests: {unreached}"
    # an allow-list entry that a run reaches after all is stale
    stale = sorted(k for k in ALLOWED
                   if not k.endswith(".*") and k in reached)
    assert not stale, f"reached by a run, drop from ALLOWED: {stale}"
