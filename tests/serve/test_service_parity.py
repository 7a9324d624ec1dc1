"""A service-submitted run is bitwise identical to the CLI serial path."""

import multiprocessing

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.serve.fleet import WorkerFleet
from repro.serve.registry import RunRegistry

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fleet pool needs the fork start method",
)


def _deck(chk: str) -> str:
    # an AMR curvilinear case, so the coords/metrics/interp paths are
    # all exercised on the service side
    return ("crocco.case = dmr\ncrocco.curvilinear = true\n"
            "amr.n_cell = 48 16\namr.max_level = 1\n"
            "run.steps = 4\n"
            f"run.checkpoint = {chk}\n")


def _level_arrays(chk_dir):
    import json
    from pathlib import Path

    base = Path(chk_dir)
    header = json.loads((base / "Header").read_text())
    out = {}
    for lev in range(header["finest_level"] + 1):
        with np.load(base / f"Level_{lev}.npz") as data:
            for name in sorted(data.files):
                out[(lev, name)] = data[name].copy()
    return header, out


def test_service_run_bitwise_matches_cli_serial(tmp_path):
    # reference: the same deck through the CLI serial path
    cli_chk = tmp_path / "cli_chk"
    deck_path = tmp_path / "deck.inputs"
    deck_path.write_text(_deck(str(cli_chk)))
    assert cli_main([str(deck_path)]) == 0

    # candidate: submitted through the service, executed by the fleet
    reg = RunRegistry(tmp_path / "svc")
    fleet = WorkerFleet(reg, workers=2,
                        task_timeout=180.0).start()
    try:
        # run it twice: both runs must match the CLI run
        recs = [reg.submit(_deck("chk")) for _ in range(2)]
        import time

        t_end = time.monotonic() + 240
        while time.monotonic() < t_end:
            states = [reg.get(r.id).state for r in recs]
            if all(s in ("done", "failed", "cancelled") for s in states):
                break
            time.sleep(0.1)
        assert states == ["done", "done"], [reg.get(r.id).reason
                                           for r in recs]

        ref_header, ref = _level_arrays(cli_chk)
        for rec in recs:
            hdr, arrays = _level_arrays(reg.run_dir(rec.id) / "chk")
            assert hdr["step"] == ref_header["step"]
            assert hdr["time"] == ref_header["time"]  # exact float equality
            assert arrays.keys() == ref.keys()
            for key in ref:
                assert arrays[key].tobytes() == ref[key].tobytes(), (
                    f"state diverged at level/box {key} for {rec.id}")
    finally:
        fleet.stop()
