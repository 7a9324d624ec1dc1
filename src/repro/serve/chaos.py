"""Service-level chaos: the fault-plan grammar, one level up the stack.

PR 3's :mod:`repro.resilience.faults` made *solver* chaos deterministic:
a seeded plan of ``kind@step`` tokens instead of random failure.  This
module extends the same grammar to the *service* — the registry, fleet,
server process and HTTP path — so the chaos acceptance suite can kill
workers mid-run, kill the server mid-load, tear registry records,
corrupt cache entries and mangle HTTP exchanges, reproducibly.

Plan tokens (``kind@n[:arg]``, parsed by
:func:`repro.resilience.faults.parse_plan` with this vocabulary; ``n``
counts *dispatches* for run-level faults and *proxied requests* for
HTTP faults, both 1-based)::

    kill_worker@N[:S]     the N-th dispatched run's worker hard-exits at
                          the step-S boundary (default 1) — a lost node
                          mid-run; the fleet re-dispatches and the
                          run resumes from its last autocheckpoint
    kill_server@N         advisory: the harness hard-stops the service
                          after the N-th dispatch (a service crash; the
                          injector only reports when it is due — killing
                          a process is the harness's job)
    torn_record@N         tear the N-th submitted run's run.json in half
                          (a kill mid-write of a non-atomic writer; the
                          restarted registry must tolerate it)
    corrupt_cache@N[:kind] overwrite one shared cache entry with garbage
                          before the N-th dispatch (the next reader must
                          evict and recompute, never crash or hit)
    delay_http@N[:SECS]   the chaos proxy delays the N-th proxied
                          request by SECS (default 0.5) seconds
    truncate_http@N[:FRAC] the chaos proxy cuts the N-th response body
                          at FRAC (default 0.5) of its bytes — a torn
                          read the client must treat as retryable

The :class:`ChaosProxy` is the DESIGN.md substitution for real network
faults: a forwarding HTTP proxy on the loopback stands in for a flaky
interconnect, the same way the fork pool stands in for MPI ranks.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.resilience.faults import FaultSpec, parse_plan

#: the service-level fault vocabulary (run faults count dispatches,
#: HTTP faults count proxied requests)
SERVICE_KINDS = ("kill_worker", "kill_server", "torn_record",
                 "corrupt_cache", "delay_http", "truncate_http")

#: run-level kinds keyed on the fleet's dispatch counter
DISPATCH_KINDS = ("kill_worker", "kill_server", "torn_record",
                  "corrupt_cache")

#: HTTP kinds keyed on the proxy's request counter
HTTP_KINDS = ("delay_http", "truncate_http")


class ServiceFaultInjector:
    """Executes a service fault plan deterministically.

    The fleet consults :meth:`fault_for_dispatch` on every dispatch (and
    the injector executes its own disk-level faults — torn records,
    corrupted cache entries — right there, so they land *while the
    service is live*); the harness polls :meth:`server_kill_due` to
    learn when the plan wants the server process killed; the
    :class:`ChaosProxy` consults :meth:`http_action` per forwarded
    request.  Every fault fires exactly once and is logged in
    :attr:`fired` for recovery accounting.
    """

    def __init__(self, specs: List[FaultSpec], seed: int = 0) -> None:
        self.specs = list(specs)
        self.seed = seed
        self.fired: List[Dict] = []
        self._lock = threading.Lock()
        self._kill_due = False

    @classmethod
    def from_plan(cls, plan: str,
                  seed: Optional[int] = None) -> "ServiceFaultInjector":
        specs, plan_seed = parse_plan(plan, kinds=SERVICE_KINDS)
        return cls(specs, seed if seed else plan_seed)

    def _record(self, spec: FaultSpec, target: str) -> None:
        spec.fired = True
        self.fired.append({"kind": spec.kind, "n": spec.step,
                           "target": target})

    def pending(self) -> List[FaultSpec]:
        return [s for s in self.specs if not s.fired]

    def fired_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for entry in self.fired:
            out[entry["kind"]] = out.get(entry["kind"], 0) + 1
        return out

    # -- fleet hook (called from the pump thread per dispatch) -------------
    def fault_for_dispatch(self, n: int, run_id: str,
                           registry=None,
                           cache_dir=None) -> Optional[tuple]:
        """The payload fault for dispatch ``n``, executing side faults.

        ``kill_worker`` returns a ``("kill_step", S)`` marker the serve
        worker honors; ``torn_record`` / ``corrupt_cache`` are executed
        here against the live registry/cache; ``kill_server`` only arms
        :meth:`server_kill_due`.
        """
        out: Optional[tuple] = None
        with self._lock:
            for spec in self.specs:
                if spec.fired or spec.step != n:
                    continue
                if spec.kind == "kill_worker":
                    out = ("kill_step", int(spec.arg or 1))
                    self._record(spec, f"dispatch {n} ({run_id})")
                elif spec.kind == "kill_server":
                    self._kill_due = True
                    self._record(spec, f"after dispatch {n}")
                elif spec.kind == "torn_record" and registry is not None:
                    torn = tear_record(registry, run_id)
                    self._record(spec, torn or f"dispatch {n} (no record)")
                elif spec.kind == "corrupt_cache" and cache_dir is not None:
                    hit = corrupt_cache_entry(cache_dir, kind=spec.arg)
                    self._record(spec, hit or f"dispatch {n} (cache empty)")
        return out

    def server_kill_due(self) -> bool:
        """True once the plan wants the server killed (latched once)."""
        with self._lock:
            due, self._kill_due = self._kill_due, False
            return due

    # -- proxy hook (called per forwarded request) -------------------------
    def http_action(self, n: int) -> Optional[Tuple[str, float]]:
        """``("delay", secs)`` / ``("truncate", frac)`` for request ``n``."""
        with self._lock:
            for spec in self.specs:
                if spec.fired or spec.step != n or spec.kind not in HTTP_KINDS:
                    continue
                if spec.kind == "delay_http":
                    self._record(spec, f"request {n}")
                    return ("delay", float(spec.arg or 0.5))
                if spec.kind == "truncate_http":
                    self._record(spec, f"request {n}")
                    return ("truncate", float(spec.arg or 0.5))
        return None


# -- disk-level fault helpers (also used directly by tests) ----------------

def tear_record(registry, run_id: str) -> Optional[str]:
    """Tear a run's ``run.json`` in half — a kill mid-write.

    The registry itself always writes atomically, so this simulates the
    *absence* of that protection (or a filesystem that lost the tail);
    the restarted registry must skip the torn record without crashing.
    Returns the torn path, or None when the record doesn't exist.
    """
    path = Path(registry.run_dir(run_id)) / "run.json"
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    path.write_bytes(raw[: max(1, len(raw) // 2)])
    return str(path)


def corrupt_cache_entry(cache_dir, kind: Optional[str] = None,
                        ) -> Optional[str]:
    """Overwrite one cache ``.npz`` with garbage (deterministic pick).

    Chooses the lexicographically first entry (of ``kind`` if given) so
    a seeded plan corrupts the same file every time.  Returns the path,
    or None when the cache holds nothing yet.
    """
    root = Path(cache_dir)
    pattern = f"{kind}/*.npz" if kind else "*/*.npz"
    entries = sorted(root.glob(pattern))
    if not entries:
        return None
    entries[0].write_bytes(b"not a zip file: chaos was here")
    return str(entries[0])


def corrupt_checkpoint(ck_dir) -> Optional[str]:
    """Tear the newest autocheckpoint's Header (a kill mid-save).

    ``find_resume_point`` must evict it and fall back to the previous
    good checkpoint (or a cold start).  Returns the torn Header path.
    """
    from repro.io.checkpoint import latest_checkpoint

    ck = latest_checkpoint(ck_dir)
    if ck is None:
        return None
    header = ck / "Header"
    try:
        raw = header.read_bytes()
    except OSError:
        return None
    header.write_bytes(raw[: max(1, len(raw) // 2)])
    return str(header)


# -- the fault-injection HTTP proxy ----------------------------------------

class _ProxyHandler(BaseHTTPRequestHandler):
    """Forwards one request to the upstream, applying planned faults."""

    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # noqa: D102 - keep tests quiet
        pass

    @property
    def proxy(self) -> "ChaosProxy":
        return self.server.chaos_proxy  # type: ignore[attr-defined]

    def _relay(self) -> None:
        proxy = self.proxy
        n = proxy.next_request_index()
        action = None
        if proxy.injector is not None:
            action = proxy.injector.http_action(n)
        if action is not None and action[0] == "delay":
            time.sleep(action[1])
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else None
        req = urllib.request.Request(
            proxy.upstream + self.path, data=body, method=self.command,
            headers={"Content-Type":
                     self.headers.get("Content-Type", "application/json")})
        try:
            with urllib.request.urlopen(req, timeout=proxy.timeout) as resp:
                status, payload = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            status, payload = exc.code, exc.read()
        except (urllib.error.URLError, OSError):
            # upstream down (e.g. killed by the same plan): the client
            # sees a connection error either way; 502 keeps it JSON
            status, payload = 502, json.dumps(
                {"error": "chaos proxy: upstream unreachable"}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if action is not None and action[0] == "truncate":
            # advertise the full length but deliver a prefix and cut the
            # connection: the client reads a short/torn body exactly as
            # it would across a failing link
            cut = max(1, int(len(payload) * action[1]))
            try:
                self.wfile.write(payload[:cut])
                self.wfile.flush()
            except OSError:
                pass
            self.close_connection = True
            try:
                self.connection.close()
            except OSError:
                pass
            return
        self.wfile.write(payload)

    do_GET = do_POST = do_PUT = do_DELETE = _relay  # noqa: N815


class ChaosProxy:
    """A loopback HTTP proxy that injects planned network faults.

    Stands in for a flaky network between client and service: planned
    requests are delayed or their responses truncated; everything else
    forwards verbatim.  Usage::

        proxy = ChaosProxy(f"http://127.0.0.1:{port}", injector).start()
        client = ServeClient(proxy.url)
        ...
        proxy.stop()
    """

    def __init__(self, upstream: str,
                 injector: Optional[ServiceFaultInjector] = None,
                 host: str = "127.0.0.1", timeout: float = 30.0) -> None:
        self.upstream = upstream.rstrip("/")
        self.injector = injector
        self.timeout = timeout
        self._requests = 0
        self._lock = threading.Lock()
        self._httpd = ThreadingHTTPServer((host, 0), _ProxyHandler)
        self._httpd.daemon_threads = True
        self._httpd.chaos_proxy = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def next_request_index(self) -> int:
        with self._lock:
            self._requests += 1
            return self._requests

    @property
    def request_count(self) -> int:
        return self._requests

    def start(self) -> "ChaosProxy":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True,
            name="chaos-proxy")
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None
