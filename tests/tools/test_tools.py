"""Tests for the command-line tools (renderer, convergence driver) and
the paper-figure recorders under ``benchmarks/``."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent.parent


def load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def load_tool(name):
    return load(ROOT / "tools" / f"{name}.py")


@pytest.fixture()
def small_plotfile(tmp_path):
    from repro.cases.dmr import DoubleMachReflection
    from repro.core.crocco import Crocco, CroccoConfig
    from repro.io.plotfile import write_plotfile

    case = DoubleMachReflection(ncells=(32, 8))
    sim = Crocco(case, CroccoConfig(version="1.2", max_level=1,
                                    max_grid_size=16, regrid_int=2))
    sim.initialize()
    sim.run(2)
    return write_plotfile(tmp_path / "plt", sim)


def test_render_plotfile_assembles_levels(small_plotfile, tmp_path):
    tool = load_tool("render_plotfile")
    field = tool.assemble(str(small_plotfile), comp=0, max_level=1)
    # finest-level canvas: 64 x 16
    assert field.shape == (64, 16)
    finite = field[np.isfinite(field)]
    assert finite.min() >= 1.0  # density field
    out = tmp_path / "img.pgm"
    tool.write_pgm(field, out, log_scale=False)
    header = out.read_text().splitlines()
    assert header[0] == "P2"
    assert header[1] == "64 16"  # PGM header: width height


def test_render_plotfile_cli(small_plotfile, tmp_path, capsys):
    tool = load_tool("render_plotfile")
    out = tmp_path / "x.pgm"
    rc = tool.main([str(small_plotfile), "--out", str(out), "--log"])
    assert rc == 0
    assert out.exists()


def test_render_plotfile_draws_a_1d_field_as_one_row(tmp_path, capsys):
    from repro.cases.shocktube import SodShockTube
    from repro.core.crocco import Crocco, CroccoConfig
    from repro.io.plotfile import write_plotfile

    sim = Crocco(SodShockTube(32), CroccoConfig(version="1.1"))
    sim.initialize()
    sim.run(2)
    plt = write_plotfile(tmp_path / "plt", sim)
    tool = load_tool("render_plotfile")
    out = tmp_path / "sod.pgm"
    assert tool.main([str(plt), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "32 1"
    assert "(32x1," in capsys.readouterr().out


def test_every_recorder_imports():
    """Each ``benchmarks/bench_*.py`` imports without running: a renamed
    ``src/`` symbol or a deleted helper fails here, not in a bench run."""
    recorders = sorted((ROOT / "benchmarks").glob("bench_*.py"))
    assert recorders
    for path in recorders:
        mod = load(path)
        assert any(name.startswith("test_") for name in vars(mod)), path.name


def test_convergence_tool_importable():
    tool = load_tool("convergence")
    assert callable(tool.main)


@pytest.mark.parametrize("argv, bad", [
    (["abc"], "base_n"), (["0"], "base_n"), (["2.5"], "base_n"),
    (["16", "nan"], "t_end"), (["16", "-1"], "t_end"),
    (["16", "inf"], "t_end")])
def test_convergence_tool_rejects_a_bad_argument(argv, bad, capsys):
    """A bad value is a one-line usage error with exit 2, before any run."""
    tool = load_tool("convergence")
    with pytest.raises(SystemExit) as exc:
        tool.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {bad}" in errors[0]


def test_convergence_tool_help_exits_cleanly(capsys):
    tool = load_tool("convergence")
    with pytest.raises(SystemExit) as exc:
        tool.main(["--help"])
    assert exc.value.code == 0
    assert "base_n" in capsys.readouterr().out


def test_option_table_lint_passes_here_and_catches_a_second_spelling(tmp_path):
    lint = load_tool("lint_option_table")
    assert lint.violations() == []
    src = tmp_path / "src"
    src.mkdir()
    (src / "table.py").write_text('ENV = "REPRO_BACKEND"\n')
    (src / "plumbing.py").write_text(
        'import os\nw = os.environ.get("REPRO_BACKEND")\n')
    assert ("REPRO_BACKEND: written 2 times (src/plumbing.py:2, "
            "src/table.py:1)") in lint.violations(src)


def test_vectorisation_check_passes_here_and_catches_a_scalar_loop(tmp_path):
    import shutil

    if shutil.which("gcc") is None:
        pytest.skip("needs gcc (the report is its -fopt-info)")
    check = load_tool("check_vectorised")
    assert check.missing(cc="gcc") == []
    source = ROOT / "src" / "repro" / "numerics" / "weno_sweep.c"
    carried = "o[i] = (add ? o[i] + x : x) + (i ? o[i - 1] : 0.0);"
    text = source.read_text()
    assert text.count("o[i] = add ? o[i] + x : x;") == 1
    broken = tmp_path / source.name
    broken.write_text(text.replace("o[i] = add ? o[i] + x : x;", carried))
    assert check.missing(broken, cc="gcc") == ["diff_row"]


def test_divide_count_is_two_here_and_catches_a_divide_per_stencil():
    """The row kernel is bound by its divides; a divide per stencil
    brought back into both implementations passes every bitwise test, so
    the tool counts them, through the functions and macros ``combine()``
    calls."""
    check = load_tool("check_vectorised")
    text = (ROOT / "src" / "repro" / "numerics" / "weno_sweep.c").read_text()
    assert check.divides(text) == check.DIVIDES == 2
    indicator = "return (p * p + s * s * t->beta_k) * inv;"
    factor = "#define SQ1(b) (((b) + 1.0) * ((b) + 1.0))"
    assert text.count(indicator) == text.count(factor) == 1
    # one divide per stencil (four calls) in a function or in a macro
    assert check.divides(text.replace(indicator, indicator.replace(
        "* inv", "/ inv"))) == 6
    assert check.divides(text.replace(factor, factor.replace(
        "(((b)", "(1.0 / ((b)"))) == 6
    # comments do not count
    assert check.divides(text.replace(indicator, indicator + " /* a / b */")) == 2


def test_vectorisation_check_catches_a_scalar_rate_loop(tmp_path):
    """ComputeDt's rate row and the primitives pass A stores are checked
    too: a rate loop that leaves at its first NaN (the obvious scalar
    rewrite of the NaN rule) still gives every bit, and runs unvectorised."""
    import shutil

    if shutil.which("gcc") is None:
        pytest.skip("needs gcc (the report is its -fopt-info)")
    check = load_tool("check_vectorised")
    assert {"primitives", "speed", "rate_row"} <= set(check.LOOPS)
    source = ROOT / "src" / "repro" / "numerics" / "weno_sweep.c"
    text, keep = source.read_text(), "KEEP(l, mx, nan);"
    assert text.count(keep) == 1
    broken = tmp_path / source.name
    broken.write_text(text.replace(keep, keep + " if (l != l) break;"))
    assert check.missing(broken, cc="gcc") == ["rate_row"]
