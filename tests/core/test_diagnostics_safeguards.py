"""Tests for diagnostics (incl. shock-speed validation)."""

import math

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
