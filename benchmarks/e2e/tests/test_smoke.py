"""A 2-step run of every workload through the real command line."""

import json

import run


def test_two_step_smoke_of_all_workloads(tmp_path, capsys):
    spec = run.load_spec()
    out = tmp_path / "results.json"
    # one round per trace mode: three runs of each workload in all, two
    # untraced and one traced, which must agree on every exact count
    assert run.main(["--steps", "2", "--repeats", "1", "--seed", "5",
                     "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    lines = [json.loads(l) for l in printed if l.startswith("{")]
    results = json.loads(out.read_text())

    names = [w["name"] for w in spec["workloads"]]
    assert list(results["workloads"]) == names
    assert len(lines) == len(names)
    expected = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    for name, line in zip(names, lines):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float))
                   for v in line["metrics"].values()), name
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] == 3 * 2
        res = results["workloads"][name]
        assert res["failed_frac"] == 0 and res["deterministic"]
        assert res["reference"] == "none"   # no golden for a cut-short run
        for metric in expected:             # ... and each is printed by name
            assert any(l.startswith(name) and f" {metric} " in l
                       for l in printed), metric
        for count in ("backend.launches", "mpi.messages", "mpi.bytes",
                      "amr.cells", "amr.boxes"):
            assert res["counts"][count] == res["per_layer"][count] > 0
        assert res["per_layer"]["core.closure_frac"] >= 0.95
    env = results["env"]
    assert env["seed"] == 5 and env["repeats"] == 1
    assert {"python", "numpy", "nproc", "loadavg", "git_rev"} <= set(env)
    layers = {n: results["workloads"][n]["per_layer"] for n in names}
    # the fused workload is the one with a scratch cache
    assert layers["dmr_amr_v20_fused"]["backend.scratch_hit_rate"] > 0.5
    assert layers["dmr_amr_v20"]["backend.scratch_hit_rate"] == 0

    # the workloads separate the layers as designed (shares of the traced
    # step, so the noise of the machine cancels)
    def share(workload, *metrics):
        return (sum(layers[workload][m] for m in metrics)
                / layers[workload]["core.step_s"])

    amr_side = ("amr.interp_s", "amr.parallelcopy_coords_s",
                "amr.fillboundary_nowait_s", "amr.fillboundary_finish_s",
                "amr.regrid_s")
    assert share("dmr3d_uniform", "kernels.rhs_s") >= 0.85
    assert share("dmr3d_uniform", *amr_side) <= 0.05
    assert share("dmr_amr_v20_fused", *amr_side) >= 0.50
    assert (share("dmr_churn_v21", "amr.regrid_s")
            >= 2 * share("dmr_amr_v20", "amr.regrid_s"))
