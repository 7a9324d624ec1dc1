"""HTTP surface: submit/status/metrics/cancel/stats over a real socket."""

import multiprocessing
import threading

import pytest

from repro.serve.client import ServeClient, ServeError
from repro.serve.server import make_server, read_metrics_tail

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fleet pool needs the fork start method",
)

DECK = "crocco.case = sod\namr.n_cell = 48\nrun.steps = 3\n"


@pytest.fixture
def service(tmp_path):
    httpd = make_server(tmp_path / "svc", port=0, workers=2,
                        task_timeout=120.0)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    client = ServeClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    yield client, httpd
    httpd.service.stop()
    httpd.shutdown()
    httpd.server_close()


def test_submit_poll_metrics_roundtrip(service):
    client, httpd = service
    health = client._req("GET", "/healthz")
    assert health["ok"] is True and health["status"] == "ok"
    rec = client.submit(deck=DECK, label="e2e")
    assert rec["state"] == "queued" and rec["id"].startswith("r")
    done = client.wait(rec["id"], timeout=120)
    assert done["state"] == "done"
    assert done["result"]["steps"] == 3
    # live-progress block carries the observability gauges
    assert done["progress"]["step"] == 3
    gauges = done["progress"]["gauges"]
    assert gauges["runtime.critical_path_s"] > 0.0
    assert gauges["runtime.concurrency"] >= 1.0
    assert any(k.startswith("runtime.class.") for k in gauges)
    assert not any(k.startswith("perf.") for k in gauges)
    m = client.metrics(rec["id"])
    assert len(m["records"]) == 3
    assert client.metrics(rec["id"], tail=1)["records"][0]["step"] == 3
    runs = client.list(state="done")
    assert any(r["id"] == rec["id"] for r in runs)


def test_submit_via_keys_mapping(service):
    client, _ = service
    rec = client.submit(keys={"crocco.case": "sod", "amr.n_cell": 48,
                              "run.steps": 2})
    done = client.wait(rec["id"], timeout=120)
    assert done["state"] == "done"
    assert done["result"]["case"] == "sod"


def test_bad_submissions_are_400(service):
    client, _ = service
    with pytest.raises(ServeError) as err:
        client.submit()  # neither deck nor keys
    assert err.value.status == 400
    with pytest.raises(ServeError) as err:
        client.submit(deck="this is not a deck line")
    assert err.value.status == 400  # rejected at submission, not run time


@pytest.mark.parametrize("line, named", [
    ("crocco.version = 9.9", "crocco.version"),
    ("crocco.interpolator = cubic", "crocco.interpolator"),
    ("amr.tagging = vorticity", "amr.tagging"),
    ("runtime.executor = turbo", "runtime.executor"),
    ("crocco.case = nope", "crocco.case"),
    ("amr.max_levle = 2", "amr.max_level"),
])
def test_bad_config_is_400_at_submission_and_leaves_no_record(service, line,
                                                              named):
    client, httpd = service
    with pytest.raises(ServeError) as err:
        client.submit(deck=DECK + line + "\n")
    assert err.value.status == 400
    assert named in str(err.value)  # the ConfigError text rides the 400
    assert client.list() == []
    assert not list(httpd.service.registry.root.glob("runs/*"))


def test_unknown_run_is_404(service):
    client, _ = service
    with pytest.raises(ServeError) as err:
        client.status("r99999")
    assert err.value.status == 404
    with pytest.raises(ServeError) as err:
        client.cancel("r99999")
    assert err.value.status == 404


def test_cancel_queued_run_via_http(service):
    client, httpd = service
    # saturate both lanes, then queue one more and cancel it
    busy = [client.submit(deck="crocco.case = sod\namr.n_cell = 64\n"
                          "run.steps = 400\n") for _ in range(2)]
    queued = client.submit(deck=DECK)
    out = client.cancel(queued["id"])
    assert out["state"] in ("cancelled", "cancelling")
    for b in busy:
        client.cancel(b["id"])
    done = client.wait(queued["id"], timeout=60)
    assert done["state"] == "cancelled"


def test_stats_reports_fleet(service):
    client, _ = service
    a = client.submit(deck=DECK)
    b = client.submit(deck=DECK)
    client.wait(a["id"], timeout=120)
    client.wait(b["id"], timeout=120)
    stats = client.stats()
    assert stats["runs"]["done"] == 2
    fleet = stats["fleet"]
    assert fleet["workers"] == 2 and fleet["executor"] == "pool"
    assert fleet["completed_runs"] == 2
    # the cross-run case cache is gone, and so are its counters
    assert not [k for k in (*fleet, *stats["service"]) if "cache" in k]


def test_read_metrics_tail_tolerates_partial_line(tmp_path):
    p = tmp_path / "metrics.jsonl"
    p.write_text('{"step": 1, "time": 0.1, "metrics": {"dt": 1e-3}}\n'
                 '{"step": 2, "time"')  # truncated mid-write
    records = read_metrics_tail(p)
    assert [r["step"] for r in records] == [1]
    assert read_metrics_tail(tmp_path / "absent.jsonl") == []


def test_service_cli_has_no_executor_and_workers_may_be_zero(tmp_path,
                                                             capsys):
    from repro.serve.__main__ import main as serve_main

    with pytest.raises(SystemExit) as exc_info:
        serve_main(["--root", str(tmp_path), "--executor", "inline"])
    assert exc_info.value.code == 2  # removed option: a usage error
    assert serve_main(["--root", str(tmp_path), "--workers", "-1"]) == 2
    assert "workers must be >= 0" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        serve_main(["-h"])
    assert "--executor" not in capsys.readouterr().out
