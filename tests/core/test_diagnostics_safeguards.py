"""Tests for diagnostics (incl. shock-speed validation)."""

import math
from pathlib import Path

import numpy as np
import pytest

from repro.cases.dmr import DoubleMachReflection, SHOCK_ANGLE_DEG, SHOCK_MACH
from repro.cases.shocktube import SodShockTube
from repro.core.crocco import Crocco, CroccoConfig
from repro.core.diagnostics import (
    DiagnosticsLog,
    measure_shock_speed,
    shock_position,
)


def test_diagnostics_time_series():
    case = SodShockTube(64)
    sim = Crocco(case, CroccoConfig(version="1.1", max_grid_size=64))
    sim.initialize()
    log = DiagnosticsLog(sim)
    log.sample()
    for _ in range(5):
        sim.step()
        log.sample()
    assert len(log.records) == 6
    # mass conserved to high precision in the interior-dominated phase
    assert log.drift("mass") < 1e-9
    assert log.drift("energy") < 1e-9
    # the expansion/compression changes pressure extrema
    assert log.series("p_min")[-1] < 1.0
    assert log.records[0].rho_max == pytest.approx(1.0)


def test_integrals_over_a_curvilinear_amr_deck():
    """On the curvilinear DMR deck (grown boxes 40x24 around valid 32x16)
    mass, momentum and energy integrate ``u J`` over each box's valid
    cells: the one-patch metrics of its coordinates, cropped to them."""
    from repro.cli import build_case
    from repro.io.inputs import InputDeck
    from repro.numerics.metrics import CurvilinearMetrics

    deck = Path(__file__).parents[2] / "examples" / "decks" / "dmr.inputs"
    config, run = InputDeck.from_file(str(deck)).resolve({})
    sim = Crocco(build_case(run), config)
    sim.initialize()
    sim.step()
    assert sim.case.curvilinear and sim.finest_level > 0
    lay, ng = sim.case.layout, sim.ng
    mass, energy = 0.0, 0.0
    for i, fab in sim.state[0]:
        J = CurvilinearMetrics.from_coordinates(
            sim.coords[0].fab(i).data).interior(ng).jacobian()
        assert J.shape == fab.valid().shape[1:] != fab.data.shape[1:]
        mass += float((lay.density(fab.valid()) * J).sum())
        energy += float((fab.valid()[lay.energy] * J).sum())
    rec = DiagnosticsLog(sim).sample()
    assert sim.total_mass() == rec.mass == mass
    assert rec.energy == energy
    assert all(np.isfinite(rec.momentum))
    sim.close()


def test_dmr_incident_shock_speed_matches_theory():
    """The shock trace moves at M / sin(beta): the paper's Sec. V-B physics."""
    case = DoubleMachReflection(ncells=(128, 32))
    sim = Crocco(case, CroccoConfig(version="1.1", max_grid_size=64))
    sim.initialize()
    sim.run(5)  # let startup transients clear
    speed = measure_shock_speed(sim, nsteps=25, y_frac=0.9)
    expected = SHOCK_MACH / math.sin(math.radians(SHOCK_ANGLE_DEG))
    assert speed == pytest.approx(expected, rel=0.08)


def test_shock_position_initial():
    case = DoubleMachReflection(ncells=(128, 32))
    sim = Crocco(case, CroccoConfig(version="1.1", max_grid_size=64))
    sim.initialize()
    x = shock_position(sim, y_frac=0.5)
    assert x == pytest.approx(float(case.shock_x(np.array(0.5), 0.0)), abs=0.1)
