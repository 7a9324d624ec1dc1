"""Stdlib client for the simulation service, importable and as a CLI.

Library use::

    from repro.serve.client import ServeClient
    c = ServeClient("http://127.0.0.1:8123")
    run = c.submit_file("examples/decks/sod.inputs", max_steps=50)
    done = c.wait(run["id"], timeout=120)

CLI use (CI's smoke job and the curl-averse)::

    python -m repro.serve.client --url http://127.0.0.1:8123 \\
        submit examples/decks/sod.inputs --wait
    python -m repro.serve.client --url ... status r00001
    python -m repro.serve.client --url ... stats

Robustness contract: every submission carries an **idempotency key**
(auto-generated unless supplied), so retrying a torn or shed POST can
never create a duplicate run; retryable failures — 429 (shed), 503
(draining), connection errors, truncated responses — are retried with
capped exponential backoff + jitter, honoring the server's
``Retry-After`` when it sends one.  :meth:`ServeClient.wait` polls the
same way (backoff from 50 ms up to a cap) instead of hammering a fixed
interval, and rides out transient disconnects (a restarting server)
until its own timeout.
"""

from __future__ import annotations

import argparse
import http.client
import json
import random
import sys
import time
import urllib.error
import urllib.request
import uuid
from pathlib import Path
from typing import Optional

from repro.resilience.supervisor import capped_backoff

#: HTTP statuses that mean "try again later", not "you are wrong"
RETRYABLE_STATUSES = (429, 503)


class ServeError(RuntimeError):
    """A failed service exchange.

    ``status`` is the HTTP code (0 for transport failures: refused
    connection, reset, truncated body).  ``retryable`` marks errors a
    backoff loop may retry; ``retry_after`` carries the server's
    Retry-After hint in seconds when one was sent.
    """

    def __init__(self, status: int, message: str,
                 retry_after: Optional[float] = None) -> None:
        label = f"HTTP {status}" if status else "transport error"
        super().__init__(f"{label}: {message}")
        self.status = status
        self.retry_after = retry_after

    @property
    def retryable(self) -> bool:
        return self.status == 0 or self.status in RETRYABLE_STATUSES


def _parse_retry_after(headers) -> Optional[float]:
    try:
        val = headers.get("Retry-After") if headers is not None else None
        return float(val) if val is not None else None
    except (TypeError, ValueError):
        return None


def backoff_delays(base: float = 0.1, cap: float = 2.0,
                   rng: Optional[random.Random] = None):
    """Yield capped exponential backoff delays with full jitter.

    Full jitter (``uniform(0, capped_backoff(base, cap, n))``) decorrelates a
    thundering herd of shed clients; pass a seeded ``rng`` for
    deterministic tests.
    """
    rng = rng or random
    n = 0
    while True:
        yield rng.uniform(0.0, capped_backoff(base, cap, n))
        n += 1


class ServeClient:
    """Thin JSON-over-HTTP wrapper around the service endpoints."""

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retries: int = 5, backoff_base: float = 0.1,
                 backoff_cap: float = 2.0,
                 rng: Optional[random.Random] = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        #: retry budget for retryable submit failures (429/503/transport)
        self.retries = int(retries)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._rng = rng or random.Random()
        #: retries actually performed (test/bench observability)
        self.retry_count = 0

    def _req(self, method: str, path: str, body: Optional[dict] = None):
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode())
        except urllib.error.HTTPError as exc:
            retry_after = _parse_retry_after(exc.headers)
            try:
                detail = json.loads(exc.read().decode()).get("error", "")
            except Exception:
                detail = exc.reason
            raise ServeError(exc.code, detail,
                             retry_after=retry_after) from None
        except (urllib.error.URLError, http.client.HTTPException,
                ConnectionError, TimeoutError, json.JSONDecodeError,
                OSError) as exc:
            # refused/reset connections and truncated or torn JSON all
            # collapse to one retryable transport error: the caller
            # cannot tell a dead server from a chaos proxy cutting the
            # response, and must not need to
            raise ServeError(0, f"{type(exc).__name__}: {exc}") from None

    def _retry_loop(self, fn):
        """Run ``fn`` with capped-backoff retries on retryable errors."""
        delays = backoff_delays(self.backoff_base, self.backoff_cap,
                                self._rng)
        attempt = 0
        while True:
            try:
                return fn()
            except ServeError as exc:
                attempt += 1
                if not exc.retryable or attempt > self.retries:
                    raise
                delay = next(delays)
                if exc.retry_after is not None:
                    # the server's hint wins over our schedule (jittered
                    # so a herd of shed clients doesn't return as one)
                    delay = exc.retry_after * self._rng.uniform(0.5, 1.0)
                self.retry_count += 1
                time.sleep(delay)

    # -- endpoints ---------------------------------------------------------
    def healthz(self) -> dict:
        return self._req("GET", "/healthz")

    def submit(self, deck: Optional[str] = None,
               keys: Optional[dict] = None, **opts) -> dict:
        """Submit a run; retried safely thanks to its idempotency key.

        A key is auto-generated when the caller doesn't pass one, so
        even a response lost in flight (submission registered, reply
        truncated) is resolved by the retry reading the same run back.
        """
        body = dict(opts)
        if deck is not None:
            body["deck"] = deck
        if keys is not None:
            body["keys"] = keys
        body.setdefault("idempotency_key", uuid.uuid4().hex)
        return self._retry_loop(
            lambda: self._req("POST", "/runs", body))

    def submit_file(self, path, **opts) -> dict:
        return self.submit(deck=Path(path).read_text(), **opts)

    def status(self, run_id: str) -> dict:
        return self._req("GET", f"/runs/{run_id}")

    def metrics(self, run_id: str, tail: Optional[int] = None) -> dict:
        q = f"?tail={tail}" if tail else ""
        return self._req("GET", f"/runs/{run_id}/metrics{q}")

    def cancel(self, run_id: str) -> dict:
        return self._req("POST", f"/runs/{run_id}/cancel")

    def list(self, state: Optional[str] = None) -> list:
        q = f"?state={state}" if state else ""
        return self._req("GET", f"/runs{q}")["runs"]

    def stats(self) -> dict:
        return self._req("GET", "/stats")

    def wait(self, run_id: str, timeout: Optional[float] = None,
             poll: float = 0.05, poll_cap: float = 1.0) -> dict:
        """Poll until the run reaches a terminal state; returns its record.

        The poll interval backs off exponentially from ``poll`` up to
        ``poll_cap`` (with jitter) instead of hammering a fixed rate,
        honors a Retry-After from a shedding server, and rides out
        transport errors — a server mid-restart — until ``timeout``.
        """
        t_end = None if timeout is None else time.monotonic() + timeout
        interval = max(poll, 1e-3)
        state = "unknown"
        while True:
            try:
                rec = self.status(run_id)
            except ServeError as exc:
                if not exc.retryable:
                    raise
                # keep polling through 429s/restarts; the deadline below
                # still bounds the wait
                rec = None
                if exc.retry_after is not None:
                    interval = max(interval, exc.retry_after)
            if rec is not None:
                state = rec["state"]
                if state in ("done", "failed", "cancelled"):
                    return rec
            if t_end is not None and time.monotonic() >= t_end:
                raise TimeoutError(
                    f"run {run_id} still {state!r} after {timeout}s")
            delay = interval * self._rng.uniform(0.7, 1.0)
            if t_end is not None:
                delay = min(delay, max(0.0, t_end - time.monotonic()))
            time.sleep(delay)
            interval = capped_backoff(interval, poll_cap, 1)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve.client",
        description="Talk to a running repro.serve simulation service.")
    parser.add_argument("--url", default="http://127.0.0.1:8123",
                        help="service base URL")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("submit", help="submit a deck file as a run")
    p.add_argument("deck", help="input deck file")
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--label", default="")
    p.add_argument("--steps", type=int, default=None,
                   help="override the deck's run.steps")
    p.add_argument("--max-steps", type=int, default=None,
                   help="per-run step budget")
    p.add_argument("--max-wall-s", type=float, default=None,
                   help="per-run wall budget (seconds)")
    p.add_argument("--trace", action="store_true",
                   help="record a Chrome trace alongside the metrics")
    p.add_argument("--idempotency-key", default=None,
                   help="dedupe token: resubmitting the same key returns "
                        "the existing run (default: auto-generated)")
    p.add_argument("--wait", action="store_true",
                   help="poll until the run finishes; exit 1 unless done")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="--wait poll budget (seconds)")

    for name in ("status", "metrics", "cancel"):
        q = sub.add_parser(name)
        q.add_argument("id", help="run id (e.g. r00001)")
    sub.add_parser("stats")
    q = sub.add_parser("list")
    q.add_argument("--state", default=None)

    args = parser.parse_args(argv)
    client = ServeClient(args.url)
    try:
        if args.cmd == "submit":
            opts = dict(priority=args.priority, label=args.label,
                        trace=args.trace)
            if args.steps is not None:
                opts["steps"] = args.steps
            if args.max_steps is not None:
                opts["max_steps"] = args.max_steps
            if args.max_wall_s is not None:
                opts["max_wall_s"] = args.max_wall_s
            if args.idempotency_key:
                opts["idempotency_key"] = args.idempotency_key
            rec = client.submit_file(args.deck, **opts)
            if args.wait:
                rec = client.wait(rec["id"], timeout=args.timeout)
                print(json.dumps(rec, indent=1))
                return 0 if rec["state"] == "done" else 1
            print(json.dumps(rec, indent=1))
        elif args.cmd == "status":
            print(json.dumps(client.status(args.id), indent=1))
        elif args.cmd == "metrics":
            print(json.dumps(client.metrics(args.id), indent=1))
        elif args.cmd == "cancel":
            print(json.dumps(client.cancel(args.id), indent=1))
        elif args.cmd == "stats":
            print(json.dumps(client.stats(), indent=1))
        elif args.cmd == "list":
            print(json.dumps(client.list(args.state), indent=1))
    except (ServeError, urllib.error.URLError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
