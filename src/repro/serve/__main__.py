"""``python -m repro.serve``: start the simulation service.

Example::

    python -m repro.serve --root service_dir --port 8123 --workers 4

Then submit decks with ``python -m repro.serve.client`` or plain curl::

    curl -s -X POST localhost:8123/runs \\
        -d '{"keys": {"crocco.case": "sod", "run.steps": 5}}'
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from typing import Optional

from repro.serve.server import ServiceHandler, make_server


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve", description="Run the simulation service.")
    parser.add_argument("--root", required=True,
                        help="service state directory (the run registry)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8123,
                        help="listen port (0 = ephemeral)")
    parser.add_argument("--workers", type=int, default=2,
                        help="shared fleet size (worker processes; 0 = "
                             "runs execute inline in the service process, "
                             "for platforms without fork)")
    parser.add_argument("--task-timeout", type=float, default=300.0,
                        help="seconds before an in-flight run is presumed "
                             "lost to a dead worker")
    parser.add_argument("--task-retries", type=int, default=1,
                        help="re-dispatch budget for lost/failed runs")
    parser.add_argument("--max-queue-depth", type=int, default=256,
                        help="shed submissions with 429 once this many "
                             "runs are queued (0 = unbounded)")
    parser.add_argument("--autocheckpoint-every", type=int, default=1,
                        help="per-run checkpoint cadence in steps; a "
                             "re-dispatched run resumes from its last "
                             "checkpoint (0 = off, full replay)")
    parser.add_argument("--drain-grace", type=float, default=30.0,
                        help="seconds SIGTERM waits for in-flight runs "
                             "to drain to checkpoints before exit")
    parser.add_argument("--verbose", action="store_true",
                        help="log each HTTP request")
    args = parser.parse_args(argv)

    if args.workers < 0:
        print(f"error: workers must be >= 0, got {args.workers}",
              file=sys.stderr)
        return 2
    ServiceHandler.quiet = not args.verbose
    httpd = make_server(args.root, port=args.port, host=args.host,
                        workers=args.workers,
                        task_timeout=args.task_timeout,
                        task_retries=args.task_retries,
                        max_queue_depth=args.max_queue_depth,
                        autocheckpoint_every=args.autocheckpoint_every)
    host, port = httpd.server_address[:2]
    print(f"repro.serve listening on http://{host}:{port} "
          f"(root {args.root}, {args.workers} worker(s), "
          f"{httpd.service.fleet.snapshot()['executor']} fleet)",
          flush=True)

    def _graceful(signum, frame):
        # SIGTERM = graceful drain: every in-flight run checkpoints and
        # requeues, then the accept loop stops.  The drain happens off
        # the signal frame so /healthz and status polls keep answering
        # (reporting "draining") while lanes empty.
        print("repro.serve: SIGTERM — draining in-flight runs to "
              "checkpoints", flush=True)

        def _do():
            httpd.service.drain(  # type: ignore[attr-defined]
                grace_s=args.drain_grace)
            httpd.shutdown()

        threading.Thread(target=_do, daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.service.stop()  # type: ignore[attr-defined]
        httpd.server_close()
    print("repro.serve: stopped (queued runs resume on next start)",
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
