"""Tests for the command-line driver."""

import numpy as np
import pytest

from repro.cli import build_case, main
from repro.io.inputs import InputDeck
from repro.io.plotfile import read_plotfile_header


def write_deck(tmp_path, text):
    p = tmp_path / "inputs"
    p.write_text(text)
    return str(p)


def case_of(text):
    return build_case(InputDeck.parse(text).resolve()[1])


def test_build_case_variants():
    sod = case_of("crocco.case = sod\namr.n_cell = 64")
    assert sod.name == "sod" and sod.domain_cells == (64,)
    assert case_of("crocco.case = vortex").domain_cells == (64, 64)
    dmr = case_of(
        "crocco.case = dmr\namr.n_cell = 64 16\ncrocco.curvilinear = true")
    assert dmr.name == "dmr" and dmr.curvilinear
    assert dmr.domain_cells == (64, 16)
    assert case_of("crocco.case = ignition").name == "ignition"


def test_cli_runs_sod_and_writes_plotfile(tmp_path, capsys):
    deck = write_deck(tmp_path, """
crocco.case = sod
crocco.version = 1.1
amr.n_cell = 64
amr.max_grid_size = 64
run.steps = 3
run.report_every = 1
""")
    out_dir = tmp_path / "plt"
    rc = main([deck, "--plotfile", str(out_dir), "--profile"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "step     3" in text
    assert "TinyProfiler" in text
    assert "CommLedger summary" in text
    header = read_plotfile_header(out_dir)
    assert header["step"] == 3


def test_cli_profile_off_by_default(tmp_path, capsys):
    deck = write_deck(tmp_path, """
crocco.case = sod
crocco.version = 1.1
amr.n_cell = 32
amr.max_grid_size = 32
run.steps = 1
run.report_every = 0
""")
    assert main([deck]) == 0
    text = capsys.readouterr().out
    assert "TinyProfiler" not in text


def test_cli_record_and_report_round_trip(tmp_path, capsys):
    deck = write_deck(tmp_path, """
crocco.case = sod
crocco.version = 1.1
amr.n_cell = 32
amr.max_grid_size = 32
run.steps = 2
run.report_every = 0
""")
    run_dir = tmp_path / "run"
    assert main([deck, "--record", str(run_dir)]) == 0
    assert (run_dir / "trace.json").exists()
    assert (run_dir / "metrics.jsonl").exists()
    # which WENO combination ran is in all three artifacts of the run:
    # the CLI summary, the metrics gauge and the report
    (summary,) = [ln for ln in capsys.readouterr().out.splitlines()
                  if ln.startswith("kernel.weno_impl = ")]
    assert summary.split()[2] in ("compiled", "numpy")
    import json

    last = json.loads((run_dir / "metrics.jsonl").read_text().splitlines()[-1])
    assert last["metrics"]["kernel.weno_impl"] == (
        summary.split()[2] == "compiled")

    from repro.observability.report import main as report_main

    assert report_main([str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "hot regions" in out
    assert "Advance" in out
    assert "  " + summary in out.splitlines()


def test_cli_time_target(tmp_path, capsys):
    deck = write_deck(tmp_path, """
crocco.case = sod
crocco.version = 1.1
amr.n_cell = 32
amr.max_grid_size = 32
run.time = 1e-3
run.report_every = 0
""")
    rc = main([deck])
    assert rc == 0
    out = capsys.readouterr().out
    # the final progress line reports a time at/just past the target
    import re

    times = [float(m) for m in re.findall(r"t = ([0-9.e+-]+) ", out)]
    assert times and times[-1] >= 1e-3


def test_cli_step_override(tmp_path, capsys):
    deck = write_deck(tmp_path, """
crocco.case = vortex
crocco.version = 2.1
amr.n_cell = 32
amr.max_grid_size = 32
run.steps = 50
""")
    rc = main([deck, "--steps", "2"])
    assert rc == 0
    assert "step     2" in capsys.readouterr().out


def test_cli_checkpoint_restart_cycle(tmp_path, capsys):
    chk = tmp_path / "chk"
    deck1 = write_deck(tmp_path, f"""
crocco.case = sod
crocco.version = 1.1
amr.n_cell = 32
amr.max_grid_size = 32
run.steps = 2
run.report_every = 0
run.checkpoint = {chk}
""")
    assert main([deck1]) == 0
    deck2 = write_deck(tmp_path, f"""
crocco.case = sod
crocco.version = 1.1
amr.n_cell = 32
amr.max_grid_size = 32
run.steps = 4
run.report_every = 0
run.restart = {chk}
""")
    assert main([deck2]) == 0
    out = capsys.readouterr().out
    assert "restarted from" in out
    assert "step     4" in out


def test_cli_run_of_no_step_prints_a_status_line(tmp_path, capsys):
    deck = write_deck(tmp_path, """
crocco.case = sod
crocco.version = 1.1
amr.n_cell = 32
amr.max_grid_size = 32
run.steps = 0
run.report_every = 0
""")
    assert main([deck]) == 0
    assert "step     0  t = 0.00000  dt = -" in capsys.readouterr().out


@pytest.mark.parametrize("report_every", [1, 10])
def test_cli_restart_at_its_last_step_prints_a_status_line(
        tmp_path, capsys, report_every):
    """A restart whose checkpoint is already at ``run.steps`` takes no
    step: the status line has the restored step and time, and no dt."""
    chk = tmp_path / "chk"
    deck = f"""
crocco.case = sod
crocco.version = 1.1
amr.n_cell = 32
amr.max_grid_size = 32
run.steps = 3
run.report_every = {report_every}
"""
    assert main([write_deck(tmp_path, deck + f"run.checkpoint = {chk}\n")]) == 0
    assert main([write_deck(tmp_path, deck + f"run.restart = {chk}\n")]) == 0
    out = capsys.readouterr().out.split("restarted from")[1]
    assert "step     3" in out and "dt = -" in out



def test_cli_status_line_carries_the_mixture_density_and_mass(capsys):
    """On the two-species ignition deck the status line's density range is
    of ``sum_s rho_s`` (species 0's partial density alone reads ~0.003),
    and it carries the level-0 mass of the diagnostics sample."""
    from pathlib import Path

    from repro.core.crocco import Crocco

    deck = str(Path(__file__).resolve().parents[2] / "examples" / "decks"
               / "ignition.inputs")
    assert main([deck, "--steps", "40"]) == 0
    line = [x for x in capsys.readouterr().out.splitlines()
            if x.startswith("  step    40")][-1]
    config, run = InputDeck.from_file(deck).resolve({})
    sim = Crocco(build_case(run), config)
    sim.initialize()
    sim.run(40)
    lay = sim.case.layout
    rho = np.concatenate([lay.density(fab.valid()).ravel()
                          for _, fab in sim.state[0]])
    assert 0.5 < rho.min() and lay.nspecies == 2
    assert f"rho in [{rho.min():.3f}, {rho.max():.3f}]" in line

    from repro.core.diagnostics import sample
    rec = sample(sim)
    assert (rec.rho_min, rec.rho_max) == (rho.min(), rho.max())
    assert line.endswith(f"mass = {rec.mass:.6e}")

BASE_DECK = ("crocco.case = sod\namr.n_cell = 32\namr.max_grid_size = 32\n"
             "run.steps = 1\n")


@pytest.mark.parametrize("deck_text, env, argv, named", [
    # the six probes of ISSUE 15
    (BASE_DECK + "this line has no equals sign\n", {}, [], "line 5"),
    (None, {}, [], "no_such_deck.inputs"),
    ("crocco.case = nope\n", {}, [], "crocco.case"),
    ("crocco.case = dmr\namr.n_cell = 128\n", {}, [], "amr.n_cell"),
    (BASE_DECK + "amr.max_levle = 2\n", {}, [], "'amr.max_level'"),
    (BASE_DECK, {"REPRO_BACKEND": "x"}, [], "REPRO_BACKEND"),
    # one bad value per spelling and per kind of check
    (BASE_DECK + "crocco.version = 3.0\n", {}, [], "crocco.version"),
    (BASE_DECK + "amr.max_level = two\n", {}, [], "amr.max_level"),
    (BASE_DECK + "mpi.nranks = 0\n", {}, [], "mpi.nranks"),
    (BASE_DECK + 'run.plotfile = "unbalanced\n', {}, [], "line 5"),
    (BASE_DECK, {}, ["--backend", "turbo"], "--backend"),
    (BASE_DECK, {}, ["--steps", "x"], "--steps"),
    # what went with the in-run pool is an error, not a synonym
    (BASE_DECK + "runtime.executor = serial\n", {}, [], "runtime.executor"),
    (BASE_DECK + "runtime.workers = 2\n", {}, [], "runtime.workers"),
    (BASE_DECK + "resilience.supervise = true\n", {}, [],
     "resilience.supervise"),
    (BASE_DECK + "resilience.retries = 2\n", {}, [], "resilience.retries"),
    (BASE_DECK + "resilience.task_timeout = 1\n", {}, [],
     "resilience.task_timeout"),
    (BASE_DECK + "resilience.max_pool_restarts = 1\n", {}, [],
     "resilience.max_pool_restarts"),
    # the task timing views are always on: no switch to turn them off
    (BASE_DECK + "runtime.perfscope = false\n", {}, [], "runtime.perfscope"),
    # gone with the cross-run case cache and the positivity guard
    (BASE_DECK + "run.cache_dir = x\n", {}, [], "run.cache_dir"),
    (BASE_DECK + "resilience.positivity_spike = 4\n", {}, [],
     "resilience.positivity_spike"),
    (BASE_DECK, {}, ["--faults", "kill_worker@1.1"], "repro.serve.chaos"),
    (BASE_DECK, {"REPRO_FAULTS": "slow@2"}, [], "repro.serve.chaos"),
    (BASE_DECK, {}, ["--faults", "meteor@1"], "resilience.faults.plan"),
    # gone with the compression-ramp case: the legal cases are named
    ("crocco.case = ramp\n", {}, [], "sod, vortex, dmr, ignition"),
    (BASE_DECK + "ramp.mach = 3\n", {}, [], "ramp.mach"),
    (BASE_DECK + "ramp.angle = 15\n", {}, [], "ramp.angle"),
    # gone with the momentum criterion: density is the one tagging
    (BASE_DECK + "amr.tagging = momentum\n", {}, [], "amr.tagging"),
    # fault plans that could never fire
    (BASE_DECK, {}, ["--faults", "task_error@1.5"], "resilience.faults.plan"),
    (BASE_DECK, {}, ["--faults", "drop_comm@1:zz"], "resilience.faults.plan"),
    # a restart from no checkpoint, or from one without its Header
    # ({tmp} is the test's directory)
    (BASE_DECK + "run.restart = {tmp}/no_such_chk\n", {}, [], "run.restart"),
    (BASE_DECK + "run.restart = {tmp}\n", {}, [], "no Header"),
])
def test_cli_bad_input_is_one_error_line_exit_2(tmp_path, capsys, monkeypatch,
                                                deck_text, env, argv, named):
    """A bad deck, flag or environment variable never reaches a traceback
    or a silent fallback: one ``error:`` line naming the culprit, exit 2."""
    deck = (str(tmp_path / "no_such_deck.inputs") if deck_text is None
            else write_deck(tmp_path, deck_text.replace("{tmp}",
                                                        str(tmp_path))))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main([deck] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0]


@pytest.mark.parametrize("flag", ["--executor", "--workers", "--cache-dir"])
def test_cli_removed_flags_are_usage_errors(tmp_path, capsys, flag):
    """argparse's own exit: status 2, the flag named, nothing run."""
    with pytest.raises(SystemExit) as exc:
        main([write_deck(tmp_path, BASE_DECK), flag, "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


def test_cli_regrid_int_auto_runs_from_a_deck(tmp_path, capsys):
    deck = write_deck(tmp_path, """
crocco.case = dmr
crocco.version = 2.0
amr.n_cell = 64 16
amr.max_grid_size = 32
amr.max_level = 1
amr.regrid_int = auto
run.steps = 2
""")
    assert main([deck]) == 0
    assert "2 level(s)" in capsys.readouterr().out


def test_solver_import_does_not_pull_in_scipy():
    """scipy is a test-only dependency: the package never imports it."""
    import subprocess
    import sys

    code = ("import sys; import repro, repro.cases, repro.core.crocco; "
            "sys.exit('scipy' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
