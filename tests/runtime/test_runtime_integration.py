"""End-to-end runtime: nowait/finish comm split, engine reports, and the
one execution path a step has (DESIGN.md, "One way to run a step")."""

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.amr.boundary import fill_boundary_nowait
from repro.amr.box import Box
from repro.amr.boxarray import BoxArray
from repro.amr.distribution import DistributionMapping
from repro.amr.geometry import Geometry
from repro.amr.multifab import MultiFab
from repro.cases.dmr import DoubleMachReflection
from repro.core.config import OPTIONS
from repro.core.crocco import ConfigError, Crocco, CroccoConfig
from repro.io.inputs import InputDeck
from repro.mpi.comm import Communicator


def make_mf(ngrow=2, periodic=(False, False)):
    domain = Box((0, 0), (31, 31))
    ba = BoxArray.from_domain(domain, 16, 8)
    comm = Communicator(4, ranks_per_node=2)
    dm = DistributionMapping.make(ba, 4, "roundrobin")
    mf = MultiFab(ba, dm, 2, ngrow, comm)
    geom = Geometry(domain, (0.0, 0.0), (1.0, 1.0), periodic)
    return mf, geom


def randomize(mf, seed=0):
    rng = np.random.default_rng(seed)
    for _i, fab in mf:
        fab.whole()[...] = rng.standard_normal(fab.whole().shape)


class TestNowaitFinish:
    def test_handle_accounting(self):
        """finish() consumes the packets: a second call writes nothing."""
        mf, geom = make_mf()
        randomize(mf)
        handle = fill_boundary_nowait(mf, geom)
        handle.finish()
        for _i, fab in mf:
            fab.whole()[...] = -1.0
        handle.finish()
        for _i, fab in mf:
            assert (fab.whole() == -1.0).all()

    def test_pack_snapshot_isolated_from_later_writes(self):
        """The nowait pack must snapshot source data; mutating valid cells
        between post and finish must not leak into the exchanged ghosts."""
        a, geom = make_mf()
        b, _ = make_mf()
        randomize(a, seed=3)
        randomize(b, seed=3)
        fill_boundary_nowait(a, geom).finish()

        handle = fill_boundary_nowait(b, geom)
        for _i, fab in b:
            fab.valid()[...] += 1.0  # overlapped "compute" on valid cells
        handle.finish()
        ng = b.ngrow.tup()[0]
        for i, fab in a:
            # mask out valid cells; ghosts must match a's (pre-bump) ghosts
            mask = np.ones(fab.whole().shape, dtype=bool)
            mask[(slice(None),) + tuple(slice(ng, s - ng)
                                        for s in fab.whole().shape[1:])] = False
            np.testing.assert_array_equal(fab.whole()[mask],
                                          b.fab(i).whole()[mask])


def run_dmr(steps=3, max_level=1, **cfg):
    case = DoubleMachReflection(ncells=(64, 16), curvilinear=True)
    sim = Crocco(case, CroccoConfig(
        version="2.0", nranks=6, ranks_per_node=6, max_level=max_level,
        max_grid_size=32, blocking_factor=8, regrid_int=2, **cfg))
    sim.initialize()
    sim.run(steps)
    sim.close()
    return sim


class TestEngineReport:
    def test_two_level_run_overlaps(self):
        rep = run_dmr(steps=3).engine.total_report
        assert rep.graphs == 9  # 3 steps x 3 RK stages
        assert rep.tasks_by_kind["comm-post"] > 0
        assert rep.tasks_by_kind["comm-wait"] > 0
        assert rep.tasks_by_kind["compute"] > 0
        assert rep.posted_comm_s > 0.0
        assert rep.finish_comm_s > 0.0
        # coarse-level compute runs inside the fine level's comm window
        assert rep.overlap_s > 0.0
        assert 0.0 < rep.overlap_frac <= 1.0

    def test_single_level_serial_has_no_overlap(self):
        # with one level nothing can run inside the only comm window —
        # the measured overlap is exactly zero
        rep = run_dmr(steps=2, max_level=0).engine.total_report
        assert rep.tasks_by_kind.get("interp", 0) == 0
        assert rep.overlap_s == 0.0


def test_a_step_has_one_execution_path(tmp_path):
    """The invariant a second path would break: a DMR AMR run's tasks run
    back to back on one lane — their summed time fits in each step's
    makespan — every task span of its trace sits on one track, and the
    solver loads neither ``multiprocessing`` nor the service."""
    sim = run_dmr(steps=2, trace_out=str(tmp_path / "trace.json"))
    rep = sim.engine.last_step_report
    assert 0.0 < rep.critical_path_s <= rep.busy_s <= rep.makespan_s
    assert not [k for k in rep.as_dict() if k.startswith("lane")]
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    tracks = {(e["pid"], e["tid"]) for e in events if e.get("cat") == "task"}
    assert len(tracks) == 1
    code = ("import sys, repro.core.crocco; "
            "sys.exit(any(m.split('.')[0] == 'multiprocessing' "
            "or m.startswith('repro.serve') for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestConfigPlumbing:
    """An executor is not something a run configures any more: every old
    spelling is an error or ignored, never a synonym."""

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "pool")
        monkeypatch.setenv("REPRO_WORKERS", "7")
        cfg = CroccoConfig(version="1.1")
        assert not hasattr(cfg, "executor") and not hasattr(cfg, "workers")
        assert not {"REPRO_EXECUTOR", "REPRO_WORKERS"} & {
            o.env for o in OPTIONS}

    def test_deck_silent_keeps_default(self, monkeypatch):
        for o in OPTIONS:
            if o.env:
                monkeypatch.delenv(o.env, raising=False)
        deck = InputDeck.parse("crocco.version = 1.1\n")
        assert deck.to_crocco_config() == CroccoConfig(version="1.1")

    def test_deck_keys(self):
        for key, value in [
                ("runtime.executor", "pool"), ("runtime.executor", "serial"),
                ("runtime.workers", "4"), ("resilience.supervise", "false"),
                ("resilience.retries", "2"),
                ("resilience.task_timeout", "0.75"),
                ("resilience.max_pool_restarts", "3")]:
            deck = InputDeck.parse(
                f"crocco.version = 1.1\n{key} = {value}\n")
            with pytest.raises(ConfigError,
                               match=f"unknown deck key '{key}'"):
                deck.to_crocco_config()
