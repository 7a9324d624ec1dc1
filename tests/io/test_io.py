"""Tests for input decks, plotfiles, and checkpoint/restart."""

import numpy as np
import pytest

from repro.cases.shocktube import SodShockTube
from repro.core.crocco import Crocco, CroccoConfig
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.io.inputs import InputDeck
from repro.io.plotfile import (
    read_level,
    read_plotfile_header,
    write_plotfile,
)

DECK = """
# CRoCCo input deck
crocco.version = 2.0
crocco.cfl = 0.4
amr.n_cell = 256 64 32
amr.max_level = 2
amr.blocking_factor = 8
amr.max_grid_size = 128   # the paper's hand-tuned value
mpi.nranks = 12
mpi.ranks_per_node = 6
amr.tagging = density
"""


def test_deck_parsing():
    deck = InputDeck.parse(DECK)
    assert deck.get_int("amr.max_grid_size") == 128  # comment stripped
    assert deck.get_int("missing.key", 7) == 7
    assert "crocco.version" in deck
    assert deck.domain_cells() == [256, 64, 32]


def test_deck_bool_parsing():
    deck = InputDeck.parse("a.flag = true\nb.flag = 0\n")
    assert deck.get_bool("a.flag") is True
    assert deck.get_bool("b.flag") is False
    assert deck.get_bool("c.flag", True) is True
    with pytest.raises(ValueError):
        InputDeck.parse("x = maybe").get_bool("x")


def test_deck_malformed():
    from repro.core.errors import ConfigError

    with pytest.raises(ConfigError, match="line 2"):
        InputDeck.parse("a = 1\njust a line without equals")
    with pytest.raises(ConfigError, match="line 1"):
        InputDeck.parse("key =    # empty value")
    with pytest.raises(ConfigError, match="no_such.inputs"):
        InputDeck.from_file("no_such.inputs")


def test_deck_to_crocco_config():
    # every key -> field mapping is walked in tests/core/test_config_table.py
    cfg = InputDeck.parse(DECK).to_crocco_config()
    assert (cfg.version, cfg.max_level, cfg.tagging) == ("2.0", 2, "density")


def run_small(version="1.1", steps=2):
    case = SodShockTube(32)
    sim = Crocco(case, CroccoConfig(version=version, max_grid_size=16,
                                    blocking_factor=8))
    sim.initialize()
    sim.run(steps)
    return case, sim


def test_plotfile_roundtrip(tmp_path):
    case, sim = run_small()
    pf = write_plotfile(tmp_path / "plt00002", sim)
    header = read_plotfile_header(pf)
    assert header["step"] == 2
    assert header["ncomp"] == 3
    assert header["varnames"] == ["rho_0", "mom_0", "energy"]
    fabs = read_level(pf, 0)
    assert len(fabs) == 2  # 32 cells / 16 per box
    assert fabs[0].shape == (3, 16)
    np.testing.assert_array_equal(fabs[0], sim.state[0].fab(0).valid())


def test_plotfile_varname_validation(tmp_path):
    case, sim = run_small()
    with pytest.raises(ValueError):
        write_plotfile(tmp_path / "bad", sim, varnames=["rho"])


def test_checkpoint_restart_bit_exact(tmp_path):
    case, sim = run_small(steps=3)
    ck = save_checkpoint(tmp_path / "chk00003", sim)
    # continue the original
    sim.run(2)

    # restore into a fresh driver and continue identically
    case2 = SodShockTube(32)
    sim2 = Crocco(case2, CroccoConfig(version="1.1", max_grid_size=16,
                                      blocking_factor=8))
    load_checkpoint(ck, sim2)
    assert sim2.step_count == 3
    sim2.run(2)
    assert sim2.step_count == sim.step_count
    assert sim2.time == pytest.approx(sim.time)
    for i, fab in sim.state[0]:
        np.testing.assert_array_equal(fab.valid(), sim2.state[0].fab(i).valid())


def test_checkpoint_version_mismatch(tmp_path):
    case, sim = run_small()
    ck = save_checkpoint(tmp_path / "chk", sim)
    other = Crocco(SodShockTube(32), CroccoConfig(version="2.0",
                                                  max_grid_size=16))
    with pytest.raises(ValueError):
        load_checkpoint(ck, other)
