"""Service-level chaos acceptance: the PR 3 chaos test, one level up.

Under a seeded plan that kills a worker mid-run, kills the "server"
(fleet abandoned with records left ``running``) and tears a registry
record, a restarted service must
complete every submitted run exactly once, resumed runs must replay at
most one step, and every final checkpoint must be bitwise identical to
a fault-free serial pass.  Under saturation the server sheds with 429s
and idempotent client retries never duplicate runs.
"""

import json
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.serve.chaos import ChaosProxy, ServiceFaultInjector, tear_record
from repro.serve.client import ServeClient, ServeError, backoff_delays
from repro.serve.fleet import WorkerFleet
from repro.serve.registry import RunRegistry
from repro.serve.server import make_server

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fleet pool needs the fork start method",
)


def deck(steps=3, chk="chk"):
    return (f"crocco.case = sod\namr.n_cell = 32\nrun.steps = {steps}\n"
            f"run.checkpoint = {chk}\n")


def checkpoint_arrays(chk_dir):
    header = json.loads((chk_dir / "Header").read_text())
    out = {}
    for lev in range(header["finest_level"] + 1):
        with np.load(chk_dir / f"Level_{lev}.npz") as data:
            for name in sorted(data.files):
                out[(lev, name)] = data[name].copy()
    return header, out


def wait_terminal(reg, run_ids, timeout=180.0):
    t_end = time.monotonic() + timeout
    while time.monotonic() < t_end:
        states = {rid: reg.get(rid).state for rid in run_ids}
        if all(s in ("done", "failed", "cancelled") for s in states.values()):
            return states
        time.sleep(0.05)
    raise AssertionError(f"runs never finished: {states}")


# -- the plan grammar, extended to the service ------------------------------

def test_service_plan_grammar_parses_and_rejects():
    from repro.resilience.faults import parse_plan

    from repro.serve.chaos import SERVICE_KINDS

    specs, seed = parse_plan(
        "seed=7 kill_worker@2:1 kill_server@3 torn_record@1 "
        "delay_http@2:0.1 truncate_http@5:0.3",
        kinds=SERVICE_KINDS)
    assert seed == 7 and len(specs) == 5
    assert specs[0].kind == "kill_worker" and specs[0].arg == "1"
    # service kinds are NOT valid in solver plans and vice versa
    with pytest.raises(ValueError):
        parse_plan("kill_server@1")  # solver vocabulary
    with pytest.raises(ValueError):
        parse_plan("nan@1", kinds=SERVICE_KINDS)
    # the cross-run case cache is gone, and its fault kind with it
    with pytest.raises(ValueError, match="unknown fault kind 'corrupt_cache'"
                       ".*kill_worker.*truncate_http"):
        ServiceFaultInjector.from_plan("corrupt_cache@1")


def test_injector_fires_each_fault_exactly_once(tmp_path):
    inj = ServiceFaultInjector.from_plan(
        "seed=1 kill_worker@2:3 kill_server@2 delay_http@1:0.2")
    assert inj.fault_for_dispatch(1, "r1") is None
    assert inj.fault_for_dispatch(2, "r2") == ("kill_step", 3)
    assert inj.server_kill_due() is True
    assert inj.server_kill_due() is False  # latched once
    # spent specs never re-fire
    assert inj.fault_for_dispatch(2, "r2") is None
    assert inj.http_action(1) == ("delay", 0.2)
    assert inj.http_action(1) is None
    assert inj.fired_by_kind() == {"kill_worker": 1, "kill_server": 1,
                                   "delay_http": 1}
    assert not inj.pending()


def test_kill_server_holds_its_run_until_the_kill():
    """The run of a ``kill_server`` dispatch waits at its first step
    boundary for the harness's kill (a ``kill_worker`` on the same
    dispatch wins)."""
    inj = ServiceFaultInjector.from_plan(
        "kill_server@1 kill_server@2 kill_worker@2:3")
    assert inj.fault_for_dispatch(1, "r1") == ("hold_step", 1)
    assert inj.server_kill_due() is True
    assert inj.fault_for_dispatch(2, "r2") == ("kill_step", 3)
    assert inj.server_kill_due() is True


# -- the chaos acceptance test ---------------------------------------------

@needs_fork
def test_chaos_acceptance_exactly_once_bitwise(tmp_path):
    """Worker kill + server kill + torn record, one plan."""
    # kill_server@3 holds dispatch 3 at its step-1 boundary until the
    # harness below has stopped the fleet, so the kill lands mid-run
    # however fast the run is (a 6-step sod run used to finish, and heal
    # its torn record, before the harness's 50 ms poll noticed)
    steps = 6
    # fault-free serial reference for bitwise comparison
    ref_chk = tmp_path / "ref_chk"
    deck_path = tmp_path / "ref.inputs"
    deck_path.write_text(deck(steps=steps, chk=str(ref_chk)))
    assert cli_main([str(deck_path)]) == 0
    ref_header, ref = checkpoint_arrays(ref_chk)

    root = tmp_path / "svc"
    reg = RunRegistry(root)
    # seeded plan, one lane so dispatch order is submission order:
    # dispatch 1 loses its worker at the step-1 boundary (resumes from
    # its autocheckpoint); at dispatch 3 the run's registry record is
    # torn AND the server dies mid-load — generation 2 must salvage the
    # torn record and finish everything
    chaos = ServiceFaultInjector.from_plan(
        "seed=11 kill_worker@1:1 torn_record@3 kill_server@3")
    fleet = WorkerFleet(reg, workers=1, task_timeout=8.0,
                        task_retries=1, chaos=chaos).start()
    recs = [reg.submit(deck(steps=steps), label=f"run{i}")
            for i in range(4)]
    ids = [r.id for r in recs]

    # generation 1 runs until the plan wants the server dead
    t_end = time.monotonic() + 180
    while not chaos.server_kill_due():
        assert time.monotonic() < t_end, "kill_server never came due"
        time.sleep(0.05)
    fleet.stop(abandon=True)  # kill -9: records left as they were

    interrupted = [rid for rid in ids if reg.get(rid).state == "running"]
    fired = chaos.fired_by_kind()
    assert fired.get("kill_worker") == 1
    assert fired.get("torn_record") == 1
    assert not chaos.pending(), [s.token() for s in chaos.pending()]

    # generation 2: fresh registry + fleet over the same root
    reg2 = RunRegistry(root)
    # the mid-flight run's record was torn, so it comes back through
    # salvage (requeued from the run directory's ground truth); any
    # intact running record would come back through orphan requeue
    assert reg2.torn_records_salvaged + reg2.orphans_requeued >= 1
    assert reg2.torn_records_skipped == 0
    fleet2 = WorkerFleet(reg2, workers=1, task_timeout=8.0,
                         task_retries=1, chaos=chaos).start()
    try:
        states = wait_terminal(reg2, ids)
        assert set(states.values()) == {"done"}, states

        resumed = 0
        for rid in ids:
            result = reg2.get(rid).result
            # exactly once: every run completed, with its own deck's
            # step count — a re-run or cross-bleed would show here
            assert result["status"] == "done"
            assert result["steps"] == steps, (
                f"{rid} ran the wrong step count")
            if result.get("resumed"):
                resumed += 1
                assert result["replayed_steps"] <= 1, (
                    f"{rid} replayed {result['replayed_steps']} steps")
            # bitwise identity of the final checkpoint vs the serial pass
            hdr, arrays = checkpoint_arrays(reg2.run_dir(rid) / "chk")
            assert hdr["step"] == ref_header["step"]
            assert hdr["time"] == ref_header["time"]
            assert arrays.keys() == ref.keys()
            for key in ref:
                assert arrays[key].tobytes() == ref[key].tobytes(), (
                    f"{rid} diverged at level/box {key}")

        # the killed worker's run provably took the resume path
        assert resumed >= 1
        assert len(interrupted) <= 1  # one lane: at most one mid-flight
    finally:
        fleet2.stop()


# -- saturation: shedding, Retry-After, idempotent retries -----------------

def test_saturation_sheds_with_429_and_idempotent_retries(tmp_path):
    httpd = make_server(tmp_path / "svc", workers=0, max_queue_depth=1)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    service = httpd.service
    # freeze consumption (NOT admission): the pump must not drain the
    # queue while we probe the shedding path, so stub out claims
    real_claim = service.registry.claim_next
    service.registry.claim_next = lambda: None
    try:
        host, port = httpd.server_address[:2]
        url = f"http://{host}:{port}"
        raw = ServeClient(url, retries=0)

        first = raw.submit(deck=deck())  # fills the queue (depth 1)
        with pytest.raises(ServeError) as exc_info:
            raw.submit(deck=deck())  # over the limit: must be shed
        exc = exc_info.value
        assert exc.status == 429 and exc.retryable
        assert exc.retry_after is not None and exc.retry_after >= 1.0
        assert service.shed_requests == 1
        health = raw._req("GET", "/healthz")
        assert health["status"] == "overloaded" and health["ok"] is False

        # an idempotent retry of an ALREADY-ACCEPTED submission bypasses
        # shedding (it adds no depth) and returns the same run — this is
        # what makes "retry on torn response" safe under saturation
        again = raw.submit(deck=deck(),
                           idempotency_key=first["idempotency_key"])
        assert again["id"] == first["id"]
        assert service.registry.deduped_submissions == 1
        stats = raw.stats()
        assert stats["service"]["shed_requests"] == 1
        assert stats["service"]["deduped_submissions"] == 1

        # a retrying client rides the 429 out once capacity returns
        retrier = ServeClient(url, retries=8, backoff_base=0.05,
                              backoff_cap=0.2)
        got = {}
        submit = threading.Thread(
            target=lambda: got.update(rec=retrier.submit(deck=deck())))
        submit.start()
        # resume consumption only once the retrier has been shed: its
        # first attempt meets the full queue however loaded the host is
        deadline = time.monotonic() + 60
        while service.shed_requests < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        service.registry.claim_next = real_claim  # resume consumption
        submit.join(120)
        rec = got["rec"]
        assert rec["id"] != first["id"]
        done = retrier.wait(rec["id"], timeout=120)
        assert done["state"] == "done"
        assert retrier.retry_count >= 1, "the client never had to back off"
        # no duplicates from all the retrying: exactly two runs ever
        # existed (the shed request created none, the idempotent retry
        # deduped onto the first)
        runs = retrier.list()
        assert {r["id"] for r in runs} == {first["id"], rec["id"]}
    finally:
        service.stop()
        httpd.shutdown()
        httpd.server_close()


def test_saturation_survival_every_retrying_submission_done_once(tmp_path):
    """A tiny admission window hammered by concurrent retrying clients:
    every submission ends ``done``, exactly once, despite the 429s."""
    httpd = make_server(tmp_path / "svc", workers=0, max_queue_depth=2)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    host, port = httpd.server_address[:2]
    url = f"http://{host}:{port}"
    submissions = 8
    accepted, errors = [], []

    def submitter(i):
        client = ServeClient(url, retries=10, backoff_base=0.05,
                             backoff_cap=0.5)
        try:
            accepted.append(client.submit(deck=deck(), label=f"sat{i}")["id"])
        except Exception as exc:  # pragma: no cover - the failure signal
            errors.append(exc)

    threads = [threading.Thread(target=submitter, args=(i,))
               for i in range(submissions)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(180)
        assert not errors, f"submissions lost under saturation: {errors[:3]}"
        states = wait_terminal(httpd.service.registry, accepted)
    finally:
        httpd.service.stop()
        httpd.shutdown()
        httpd.server_close()
    assert len(accepted) == len(set(accepted)) == submissions
    assert list(states.values()) == ["done"] * submissions


def test_draining_server_refuses_with_503(tmp_path):
    httpd = make_server(tmp_path / "svc", workers=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = httpd.server_address[:2]
        client = ServeClient(f"http://{host}:{port}", retries=0)
        httpd.service.drain(grace_s=1.0)
        with pytest.raises(ServeError) as exc_info:
            client.submit(deck=deck())
        assert exc_info.value.status == 503
        assert client._req("GET", "/healthz")["status"] == "draining"
    finally:
        httpd.service.stop()
        httpd.shutdown()
        httpd.server_close()


# -- the chaos proxy: delayed and truncated HTTP ---------------------------

def test_chaos_proxy_truncation_is_retried_transparently(tmp_path):
    httpd = make_server(tmp_path / "svc", workers=0)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    host, port = httpd.server_address[:2]
    inj = ServiceFaultInjector.from_plan(
        "seed=3 truncate_http@2:0.3 delay_http@3:0.05")
    proxy = ChaosProxy(f"http://{host}:{port}", inj).start()
    try:
        client = ServeClient(proxy.url, retries=6, backoff_base=0.02,
                             backoff_cap=0.1)
        rec = client.submit(deck=deck())  # request 1: clean
        # request 2 truncated mid-body -> retryable transport error ->
        # request 3 delayed -> succeeds; wait() absorbs all of it
        done = client.wait(rec["id"], timeout=120)
        assert done["state"] == "done"
        assert inj.fired_by_kind().get("truncate_http") == 1
        assert inj.fired_by_kind().get("delay_http") == 1
        # the truncation did not duplicate or lose the run
        assert len(client.list()) == 1
    finally:
        proxy.stop()
        httpd.service.stop()
        httpd.shutdown()
        httpd.server_close()


# -- torn-artifact helpers used directly -----------------------------------

def test_tear_record_helper(tmp_path):
    reg = RunRegistry(tmp_path / "svc")
    rec = reg.submit(deck())
    torn = tear_record(reg, rec.id)
    assert torn is not None
    with pytest.raises(ValueError):
        json.loads((reg.run_dir(rec.id) / "run.json").read_text())
    assert tear_record(reg, "r99999") is None


# -- client backoff unit behavior ------------------------------------------

def test_backoff_delays_are_capped_and_jittered():
    import random

    delays = backoff_delays(base=0.1, cap=0.4, rng=random.Random(1))
    seq = [next(delays) for _ in range(8)]
    assert all(0.0 <= d <= 0.4 for d in seq)
    # the *bound* grows then saturates; with full jitter the samples
    # vary rather than repeating a fixed interval
    assert len(set(seq)) > 1


def test_serve_error_retryable_classification():
    assert ServeError(429, "shed").retryable
    assert ServeError(503, "draining").retryable
    assert ServeError(0, "connection refused").retryable
    assert not ServeError(400, "bad deck").retryable
    assert not ServeError(404, "no run").retryable
