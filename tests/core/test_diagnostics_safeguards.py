"""Tests for diagnostics (incl. shock-speed validation)."""

import math
from pathlib import Path

import numpy as np
import pytest

from repro.cases.dmr import DoubleMachReflection, SHOCK_ANGLE_DEG, SHOCK_MACH
from repro.cases.shocktube import SodShockTube
from repro.core.crocco import Crocco, CroccoConfig
from repro.core.diagnostics import sample


def shock_position(crocco, y_frac: float = 0.9, comp: int = 0) -> float:
    """x-location of the strongest gradient along a y = const line.

    For the DMR, sampling near the top boundary (before the reflected
    system arrives) isolates the incident shock, whose trace speed should
    equal M / sin(beta) = 10 / sin(60 deg).
    """
    best_x, best_g = None, -1.0
    for i, fab in crocco.state[0]:
        coords = crocco.coords[0].fab(i).valid()
        u = fab.valid()
        # pick the j row closest to the requested height
        y = coords[1]
        j = int(np.argmin(np.abs(y[0, :] - y_frac * crocco.case.prob_extent[1])))
        line = u[comp][:, j] if u.ndim == 3 else u[comp][:, j, u.shape[3] // 2]
        x = coords[0][:, j] if coords.ndim == 3 else coords[0][:, j, 0]
        if len(line) < 3:
            continue
        g = np.abs(np.diff(line))
        k = int(np.argmax(g))
        if g[k] > best_g:
            best_g = float(g[k])
            best_x = float(0.5 * (x[k] + x[k + 1]))
    if best_x is None:
        raise ValueError("no shock found on the sampling line")
    return best_x


def measure_shock_speed(crocco, nsteps: int = 20, y_frac: float = 0.9) -> float:
    """Advance the run and return the measured shock-trace speed dx/dt."""
    x0, t0 = shock_position(crocco, y_frac), crocco.time
    for _ in range(nsteps):
        crocco.step()
    x1, t1 = shock_position(crocco, y_frac), crocco.time
    if t1 == t0:
        raise ValueError("no time elapsed")
    return (x1 - x0) / (t1 - t0)


def test_diagnostics_time_series():
    case = SodShockTube(64)
    sim = Crocco(case, CroccoConfig(version="1.1", max_grid_size=64))
    sim.initialize()
    records = [sample(sim)]
    for _ in range(5):
        sim.step()
        records.append(sample(sim))
    assert [r.step for r in records] == list(range(6))
    # mass conserved to high precision in the interior-dominated phase
    for attr in ("mass", "energy"):
        first, last = getattr(records[0], attr), getattr(records[-1], attr)
        assert abs(last - first) / abs(first) < 1e-9
    assert records[0].rho_min == pytest.approx(0.125)
    assert records[0].rho_max == pytest.approx(1.0)


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
    rec = sample(sim)
    assert rec.mass == mass
    assert rec.energy == energy
    assert all(np.isfinite(rec.momentum))
    sim.close()


def test_density_range_is_the_mixture_density_reduced_over_ranks():
    """Two species: the range is of ``sum_s rho_s``, not of species 0's
    partial density, and it is two tree reductions on the ledger."""
    from repro.cases.reacting import IgnitionFront

    sim = Crocco(IgnitionFront(ncells=64),
                 CroccoConfig(version="1.1", nranks=4, max_grid_size=16))
    sim.initialize()
    sim.run(5)
    lay = sim.case.layout
    rho = [lay.density(fab.valid()) for _, fab in sim.state[0]]
    before = sim.comm.ledger.by_kind().get("reduce", (0, 0))[0]
    rec = sample(sim)
    assert rec.rho_min == min(float(r.min()) for r in rho)
    assert rec.rho_max == max(float(r.max()) for r in rho)
    # binomial tree over 4 ranks: 3 messages up, 3 down, per reduction
    assert sim.comm.ledger.by_kind()["reduce"][0] - before == 12


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
