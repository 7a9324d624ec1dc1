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


def test_build_case_variants():
    assert build_case(InputDeck.parse("crocco.case = sod\namr.n_cell = 64")).name == "sod"
    assert build_case(InputDeck.parse("crocco.case = vortex")).name == "vortex"
    dmr = build_case(InputDeck.parse(
        "crocco.case = dmr\namr.n_cell = 64 16\ncrocco.curvilinear = true"))
    assert dmr.name == "dmr" and dmr.curvilinear
    assert build_case(InputDeck.parse("crocco.case = ignition")).name == "ignition"
    with pytest.raises(SystemExit):
        build_case(InputDeck.parse("crocco.case = warp"))


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
    capsys.readouterr()

    from repro.observability.report import main as report_main

    assert report_main([str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "hot regions" in out
    assert "Advance" in out


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


class TestConfigValidation:
    """Bad runtime configuration exits 2 with a message, not a traceback."""

    DECK = """
crocco.case = sod
amr.n_cell = 32
run.steps = 1
"""

    def test_nonnumeric_repro_workers_env(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        assert main([write_deck(tmp_path, self.DECK)]) == 2
        err = capsys.readouterr().err
        assert "REPRO_WORKERS must be an integer" in err
        assert "Traceback" not in err

    def test_zero_workers_in_deck(self, tmp_path, capsys):
        deck = write_deck(tmp_path, self.DECK + "runtime.workers = 0\n")
        assert main([deck]) == 2
        err = capsys.readouterr().err
        assert "workers must be >= 1" in err

    def test_unknown_executor_in_deck(self, tmp_path, capsys):
        deck = write_deck(tmp_path, self.DECK + "runtime.executor = turbo\n")
        assert main([deck]) == 2
        err = capsys.readouterr().err
        assert "unknown executor 'turbo'" in err
        assert "serial" in err  # the message lists the valid options


@pytest.mark.parametrize("line, named", [
    ("crocco.version = 3.0", "3.0"),
    ("crocco.interpolator = cubic", "cubic"),
    ("crocco.coords_source = tape", "tape"),
    ("crocco.weno = foo", "foo"),
    ("amr.max_level = two", "amr.max_level"),
    ("amr.tagging = vorticity", "vorticity"),
])
def test_cli_bad_deck_value_is_one_error_line_exit_2(tmp_path, capsys,
                                                     line, named):
    """A bad deck value never reaches a traceback or a silent fallback."""
    deck = write_deck(tmp_path, "crocco.case = sod\namr.n_cell = 32\n"
                                "amr.max_grid_size = 32\nrun.steps = 1\n"
                                + line + "\n")
    assert main([deck]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0]


def test_solver_import_does_not_pull_in_scipy():
    """scipy (~0.5 s to import) is only the ramp case's root-finder."""
    import subprocess
    import sys

    code = ("import sys; import repro.cases.dmr, repro.core.crocco, "
            "repro.io.inputs; sys.exit('scipy' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
