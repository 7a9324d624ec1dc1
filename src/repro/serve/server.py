"""The HTTP front door: stdlib ``ThreadingHTTPServer``, JSON in/out.

Endpoints::

    GET  /healthz            liveness probe
    POST /runs               submit a deck (JSON body, see below)
    GET  /runs[?state=s]     list run summaries
    GET  /runs/<id>          one run's record + live progress gauges
    GET  /runs/<id>/metrics  the run's metrics JSONL (tolerant parse)
    POST /runs/<id>/cancel   cancel a queued or running run
    GET  /stats              registry counts, fleet + cache statistics

A submission body is either the deck text verbatim::

    {"deck": "crocco.case = sod\\nrun.steps = 5\\n", "priority": 1}

or a key/value mapping rendered into deck lines::

    {"keys": {"crocco.case": "sod", "run.steps": 5}, "max_steps": 100}

Optional fields: ``priority`` (higher first), ``label``, ``steps``
(override ``run.steps``), ``max_steps`` / ``max_wall_s`` (per-run
budgets, enforced through the watchdog), ``trace`` (record a Chrome
trace), ``idempotency_key`` (resubmitting the same key returns the
run it already created — retried POSTs never duplicate work).

**Admission control**: when the queue is deeper than
``max_queue_depth`` the service sheds new submissions with ``429`` and
a ``Retry-After`` header instead of accepting unbounded backlog; while
draining (SIGTERM received) it refuses with ``503``.  ``/healthz``
reports the degradation ladder (``ok`` → ``degraded`` → ``overloaded``
→ ``draining``) so probes see saturation before clients do.

Handler threads only touch the registry and read artifact files; all
execution happens on the fleet's pump thread and worker processes, so
a slow run never blocks the HTTP surface.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional

from repro.serve.fleet import WorkerFleet
from repro.serve.registry import RunRegistry

#: gauge prefixes surfaced as a run's live "progress" block
PROGRESS_PREFIXES = ("device.class.", "runtime.", "resilience.")


class Overloaded(RuntimeError):
    """Queue past ``max_queue_depth``: shed with 429 + Retry-After."""

    def __init__(self, depth: int, limit: int, retry_after: float) -> None:
        super().__init__(
            f"queue depth {depth} exceeds limit {limit}; retry later")
        self.retry_after = retry_after


class Draining(RuntimeError):
    """The service is draining to shutdown: refuse new work with 503."""

    def __init__(self) -> None:
        super().__init__("service is draining; submit to another instance "
                         "or retry after restart")
        self.retry_after = 1.0


def read_metrics_tail(path, limit: Optional[int] = None) -> list:
    """Parse a (possibly still-growing) metrics JSONL file tolerantly.

    A streamed file's final line may be mid-write; malformed lines are
    skipped, matching the report CLI's tolerant reader.
    """
    p = Path(path)
    if not p.exists():
        return []
    records = []
    try:
        lines = p.read_text().splitlines()
    except OSError:
        return []
    if limit is not None:
        lines = lines[-limit:]
    for line in lines:
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if all(f in rec for f in ("step", "time", "metrics")):
            records.append(rec)
    return records


class SimulationService:
    """Registry + fleet + cache behind one service root directory."""

    def __init__(self, root, workers: int = 2,
                 task_retries: int = 1, task_timeout: float = 300.0,
                 max_pool_restarts: int = 3, max_queue_depth: int = 256,
                 autocheckpoint_every: int = 1, chaos=None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.registry = RunRegistry(self.root)
        self.cache_dir = self.root / "cache"
        self.fleet = WorkerFleet(
            self.registry, self.cache_dir, workers=workers,
            task_retries=task_retries,
            task_timeout=task_timeout, max_pool_restarts=max_pool_restarts,
            autocheckpoint_every=autocheckpoint_every, chaos=chaos)
        #: queued runs past this depth are shed with 429 (0 = unbounded)
        self.max_queue_depth = int(max_queue_depth)
        #: submissions refused because the queue was saturated
        self.shed_requests = 0
        self.started_at = time.time()

    def start(self) -> "SimulationService":
        self.fleet.start()
        return self

    def stop(self) -> None:
        self.fleet.stop()

    def drain(self, grace_s: float = 30.0) -> bool:
        """Checkpoint + requeue every in-flight run, refuse new work."""
        return self.fleet.drain(grace_s)

    # -- admission control -------------------------------------------------
    def _queue_depth(self) -> int:
        return self.registry.counts().get("queued", 0)

    def _retry_after(self, depth: int) -> float:
        """A Retry-After estimate: how long until the backlog clears.

        Scales with how far past the limit the queue is, clamped to a
        sane probe window — a hint, not a promise.
        """
        over = max(1, depth - self.max_queue_depth)
        return min(30.0, max(1.0, 0.25 * over))

    def health(self) -> dict:
        """The degradation ladder surfaced by ``/healthz``."""
        depth = self._queue_depth()
        if self.fleet.draining:
            status = "draining"
        elif self.max_queue_depth and depth >= self.max_queue_depth:
            status = "overloaded"
        elif self.fleet.degraded:
            status = "degraded"
        else:
            status = "ok"
        return {
            "ok": status in ("ok", "degraded"),
            "status": status,
            "queue_depth": depth,
            "max_queue_depth": self.max_queue_depth,
            "draining": self.fleet.draining,
            "degraded": self.fleet.degraded,
        }

    # -- request handlers (called from HTTP handler threads) ---------------
    def submit(self, body: dict) -> dict:
        deck_text = body.get("deck")
        if deck_text is None and "keys" in body:
            deck_text = "".join(f"{k} = {v}\n"
                                for k, v in body["keys"].items())
        if not deck_text or not isinstance(deck_text, str):
            raise ValueError("body must carry 'deck' (text) or 'keys' (map)")
        # build the config up front so an unreadable deck, an unknown key
        # or case, or a bad value is a 400 carrying the ConfigError text
        # at submission time, not a failed run minutes later
        from repro.io.inputs import InputDeck

        InputDeck.parse(deck_text).resolve()
        key = str(body.get("idempotency_key") or "")
        # a key the registry already knows bypasses admission control:
        # answering a retry from the index adds no queue depth
        if not (key and self.registry.lookup_key(key) is not None):
            if self.fleet.draining:
                raise Draining()
            depth = self._queue_depth()
            if self.max_queue_depth and depth >= self.max_queue_depth:
                self.shed_requests += 1
                raise Overloaded(depth, self.max_queue_depth,
                                 self._retry_after(depth + 1))
        rec = self.registry.submit(
            deck_text,
            priority=body.get("priority", 0),
            label=body.get("label", ""),
            max_steps=body.get("max_steps"),
            max_wall_s=body.get("max_wall_s"),
            steps=body.get("steps"),
            trace=body.get("trace", False),
            idempotency_key=key)
        return rec.summary()

    def run_status(self, run_id: str) -> Optional[dict]:
        rec = self.registry.get(run_id)
        if rec is None:
            return None
        out = rec.summary()
        out["run_dir"] = str(self.registry.run_dir(run_id))
        tail = read_metrics_tail(
            self.registry.run_dir(run_id) / "metrics.jsonl", limit=2)
        if tail:
            last = tail[-1]
            gauges = {k: v for k, v in last["metrics"].items()
                      if k.startswith(PROGRESS_PREFIXES)}
            out["progress"] = {"step": last["step"], "time": last["time"],
                               "dt": last["metrics"].get("dt"),
                               "gauges": gauges}
        return out

    def run_metrics(self, run_id: str,
                    limit: Optional[int] = None) -> Optional[dict]:
        rec = self.registry.get(run_id)
        if rec is None:
            return None
        records = read_metrics_tail(
            self.registry.run_dir(run_id) / "metrics.jsonl", limit=limit)
        return {"id": run_id, "state": rec.state, "records": records}

    def stats(self) -> dict:
        fleet = self.fleet.snapshot()
        return {
            "uptime_s": time.time() - self.started_at,
            "runs": self.registry.counts(),
            "fleet": fleet,
            # the service-resilience ledger: what chaos cost and what
            # recovery bought, one block for dashboards and the report
            "service": {
                "health": self.health()["status"],
                "max_queue_depth": self.max_queue_depth,
                "shed_requests": self.shed_requests,
                "deduped_submissions": self.registry.deduped_submissions,
                "orphans_requeued": self.registry.orphans_requeued,
                "torn_records_salvaged": self.registry.torn_records_salvaged,
                "torn_records_skipped": self.registry.torn_records_skipped,
                "suspended_runs": fleet["suspended_runs"],
                "resumes": fleet["resumes"],
                "replayed_steps": fleet["replayed_steps"],
                "cache_evictions": fleet["cache_evictions"],
            },
        }


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests onto the :class:`SimulationService`."""

    protocol_version = "HTTP/1.1"
    #: silenced by default; ``--verbose`` flips it
    quiet = True

    @property
    def service(self) -> SimulationService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # noqa: D102
        if not self.quiet:
            super().log_message(fmt, *args)

    # -- plumbing ----------------------------------------------------------
    def _send(self, code: int, payload: dict,
              headers: Optional[dict] = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for k, v in (headers or {}).items():
            self.send_header(k, v)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        data = json.loads(raw.decode() or "{}")
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _query(self) -> dict:
        from urllib.parse import parse_qs, urlparse

        q = parse_qs(urlparse(self.path).query)
        return {k: v[0] for k, v in q.items()}

    def _route(self) -> list:
        from urllib.parse import urlparse

        return [p for p in urlparse(self.path).path.split("/") if p]

    # -- verbs -------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802
        parts = self._route()
        if parts == ["healthz"]:
            # liveness stays 200 even when shedding — a saturated server
            # is alive; the degradation state is in the body
            self._send(200, self.service.health())
        elif parts == ["stats"]:
            self._send(200, self.service.stats())
        elif parts == ["runs"]:
            state = self._query().get("state")
            self._send(200, {"runs": [r.summary() for r in
                                      self.service.registry.list(state)]})
        elif len(parts) == 2 and parts[0] == "runs":
            out = self.service.run_status(parts[1])
            if out is None:
                self._send(404, {"error": f"no run {parts[1]!r}"})
            else:
                self._send(200, out)
        elif len(parts) == 3 and parts[0] == "runs" and parts[2] == "metrics":
            q = self._query()
            limit = int(q["tail"]) if "tail" in q else None
            out = self.service.run_metrics(parts[1], limit=limit)
            if out is None:
                self._send(404, {"error": f"no run {parts[1]!r}"})
            else:
                self._send(200, out)
        else:
            self._send(404, {"error": f"no route {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802
        parts = self._route()
        try:
            if parts == ["runs"]:
                body = self._read_body()
                self._send(201, self.service.submit(body))
            elif (len(parts) == 3 and parts[0] == "runs"
                    and parts[2] == "cancel"):
                state = self.service.registry.cancel(parts[1])
                if state is None:
                    self._send(404, {"error": f"no run {parts[1]!r}"})
                else:
                    self._send(200, {"id": parts[1], "state": state})
            else:
                self._send(404, {"error": f"no route {self.path!r}"})
        except Overloaded as exc:
            self._send(429, {"error": str(exc),
                             "retry_after_s": exc.retry_after},
                       headers={"Retry-After": f"{exc.retry_after:.0f}"})
        except Draining as exc:
            self._send(503, {"error": str(exc),
                             "retry_after_s": exc.retry_after},
                       headers={"Retry-After": f"{exc.retry_after:.0f}"})
        except (ValueError, KeyError) as exc:
            self._send(400, {"error": str(exc)})


def make_server(root, port: int = 0, host: str = "127.0.0.1",
                workers: int = 2, **fleet_kwargs) -> ThreadingHTTPServer:
    """Build (but don't start) the service and its HTTP server.

    Returns a :class:`ThreadingHTTPServer` with the started
    :class:`SimulationService` attached as ``.service``; call
    ``serve_forever()`` to accept traffic and ``.service.stop()`` +
    ``shutdown()`` to tear down.  ``port=0`` binds an ephemeral port
    (``server.server_address[1]`` has the real one).
    """
    service = SimulationService(root, workers=workers, **fleet_kwargs)
    httpd = ThreadingHTTPServer((host, port), ServiceHandler)
    httpd.daemon_threads = True
    httpd.service = service  # type: ignore[attr-defined]
    service.start()
    return httpd
