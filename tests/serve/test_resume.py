"""Checkpoint-resume dispatch: a re-dispatched run continues, bitwise.

The tentpole contract: a run lost to a dead worker (or drained by a
stopping service) resumes from its last valid autocheckpoint with at
most one replayed step, and its final artifacts are bitwise identical
to an uninterrupted pass through the CLI.
"""

import json
import multiprocessing
import time

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.serve.chaos import ServiceFaultInjector
from repro.serve.fleet import WorkerFleet
from repro.serve.registry import RunRegistry
from repro.serve.worker import AUTOCHK_DIR, find_resume_point

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fleet pool needs the fork start method",
)


def deck(steps=4, chk="chk"):
    return (f"crocco.case = sod\namr.n_cell = 32\nrun.steps = {steps}\n"
            f"run.checkpoint = {chk}\n")


def wait_terminal(reg, run_ids, timeout=120.0):
    t_end = time.monotonic() + timeout
    while time.monotonic() < t_end:
        states = {rid: reg.get(rid).state for rid in run_ids}
        if all(s in ("done", "failed", "cancelled") for s in states.values()):
            return states
        time.sleep(0.05)
    raise AssertionError(f"runs never finished: {states}")


def checkpoint_arrays(chk_dir):
    base = chk_dir
    header = json.loads((base / "Header").read_text())
    out = {}
    for lev in range(header["finest_level"] + 1):
        with np.load(base / f"Level_{lev}.npz") as data:
            for name in sorted(data.files):
                out[(lev, name)] = data[name].copy()
    return header, out


def reference_checkpoint(tmp_path, steps=4):
    """The same deck through the CLI (the parity oracle)."""
    chk = tmp_path / "ref_chk"
    deck_path = tmp_path / "ref_deck.inputs"
    deck_path.write_text(deck(steps=steps, chk=str(chk)))
    assert cli_main([str(deck_path)]) == 0
    return checkpoint_arrays(chk)


# -- find_resume_point mechanics -------------------------------------------

def test_find_resume_point_empty_is_cold_start(tmp_path):
    assert find_resume_point(tmp_path) is None


def test_find_resume_point_evicts_torn_header(tmp_path):
    """A corrupt newest checkpoint falls back to the previous good one."""
    from repro.cases.shocktube import SodShockTube
    from repro.core.crocco import Crocco, CroccoConfig
    from repro.io.checkpoint import save_checkpoint
    from repro.serve.chaos import corrupt_checkpoint

    sim = Crocco(SodShockTube(16), CroccoConfig(version="1.1",
                                                max_grid_size=16))
    sim.initialize()
    base = tmp_path / AUTOCHK_DIR
    save_checkpoint(base / "chk_step000000", sim)
    sim.step()
    save_checkpoint(base / "chk_step000001", sim)
    torn = corrupt_checkpoint(base)
    assert torn is not None and "chk_step000001" in torn
    ck, step, replayed = find_resume_point(tmp_path)
    assert ck.name == "chk_step000000" and step == 0
    assert not (base / "chk_step000001").exists()  # evicted, not skipped
    # all checkpoints torn -> cold start
    corrupt_checkpoint(base)
    assert find_resume_point(tmp_path) is None


# -- killed worker: resume with <= 1 replayed step, bitwise artifacts ------

def test_killed_worker_resumes_bitwise_with_bounded_replay(tmp_path):
    ref_header, ref = reference_checkpoint(tmp_path)

    reg = RunRegistry(tmp_path / "svc")
    # the deadline is far away on purpose: the fleet notices the dead
    # worker process itself, so neither the kill nor the re-dispatched run
    # is timed against a budget a loaded host could miss.  The worker
    # hard-exits at the step-2 boundary; the fleet re-dispatches and the
    # run must RESUME, not restart
    fleet = WorkerFleet(reg, workers=1,
                        task_timeout=120.0, task_retries=1,
                        chaos=ServiceFaultInjector.from_plan(
                            "kill_worker@1:2")).start()
    try:
        rec = reg.submit(deck())
        states = wait_terminal(reg, [rec.id])
        assert states[rec.id] == "done"
        back = reg.get(rec.id)
        assert back.attempts == 2, "the kill never forced a re-dispatch"
        result = back.result
        assert result["resumed"] is True
        assert result["resume_step"] >= 1
        assert result["replayed_steps"] <= 1, (
            "resume replayed more than one step")
        # recovery accounting reached the fleet and the recorder gauges
        assert fleet.resumes == 1
        assert fleet.replayed_steps <= 1
        metrics = (reg.run_dir(rec.id) / "metrics.jsonl").read_text()
        last = json.loads(metrics.splitlines()[-1])
        assert last["metrics"].get("resilience.serve_resumes") == 1.0

        hdr, arrays = checkpoint_arrays(reg.run_dir(rec.id) / "chk")
        assert hdr["step"] == ref_header["step"]
        assert hdr["time"] == ref_header["time"]
        assert arrays.keys() == ref.keys()
        for key in ref:
            assert arrays[key].tobytes() == ref[key].tobytes(), (
                f"resumed state diverged at level/box {key}")
        # terminal runs drop their resume scratch
        assert not (reg.run_dir(rec.id) / AUTOCHK_DIR).exists()
    finally:
        fleet.stop()


# -- graceful drain: suspend to checkpoint, resume in the next generation --

def test_drain_suspends_to_checkpoint_and_next_fleet_resumes(tmp_path):
    ref_header, ref = reference_checkpoint(tmp_path, steps=40)

    reg = RunRegistry(tmp_path / "svc")
    fleet = WorkerFleet(reg, workers=1,
                        task_timeout=120.0).start()
    rec = reg.submit(deck(steps=40))
    t_end = time.monotonic() + 60
    while time.monotonic() < t_end:
        if ((reg.get(rec.id).state == "running"
             and (reg.run_dir(rec.id) / "metrics.jsonl").exists())):
            break
        time.sleep(0.02)
    assert reg.get(rec.id).state == "running"

    assert fleet.drain(grace_s=30.0), "drain never emptied the lanes"
    fleet.stop()
    back = reg.get(rec.id)
    assert back.state == "queued", "drained run must be requeued, not dead"
    assert back.requeues == 1
    assert "drained to checkpoint" in back.reason
    assert (reg.run_dir(rec.id) / AUTOCHK_DIR).exists()
    assert fleet.suspended_runs == 1

    # next generation (fresh fleet over the same registry) resumes it
    fleet2 = WorkerFleet(reg, workers=1,
                         task_timeout=120.0).start()
    try:
        states = wait_terminal(reg, [rec.id])
        assert states[rec.id] == "done"
        result = reg.get(rec.id).result
        assert result["resumed"] is True
        assert result["replayed_steps"] <= 1
        assert result["steps"] == 40
        hdr, arrays = checkpoint_arrays(reg.run_dir(rec.id) / "chk")
        assert hdr["step"] == ref_header["step"]
        for key in ref:
            assert arrays[key].tobytes() == ref[key].tobytes(), (
                f"drained+resumed state diverged at {key}")
    finally:
        fleet2.stop()


def test_stop_requeues_inflight_abandon_leaves_orphans(tmp_path):
    reg = RunRegistry(tmp_path / "svc")
    fleet = WorkerFleet(reg, workers=1,
                        task_timeout=120.0).start()
    rec = reg.submit(deck(steps=2000))
    t_end = time.monotonic() + 60
    while reg.get(rec.id).state != "running" and time.monotonic() < t_end:
        time.sleep(0.02)
    assert reg.get(rec.id).state == "running"
    # abandon=True is the harness's kill -9: the record stays "running"
    fleet.stop(abandon=True)
    assert reg.get(rec.id).state == "running"
    # ... which is exactly what restart reconciliation picks up
    reg2 = RunRegistry(tmp_path / "svc")
    assert reg2.get(rec.id).state == "queued"
    assert reg2.orphans_requeued == 1
