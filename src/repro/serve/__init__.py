"""``repro.serve``: a multi-run simulation service on shared infrastructure.

The paper's porting story ends at one big run on one big machine; the
serving layer turns the reproduction into the multi-tenant shape a
production system needs — many concurrent simulations sharing one
supervised worker fleet and one HTTP front door:

- :mod:`repro.serve.registry` — persistent run registry (states
  ``queued/running/done/failed/cancelled``, priorities, per-run step and
  wall budgets), one directory per run holding the deck, the
  observability artifacts, and the result record;
- :mod:`repro.serve.fleet` — the shared worker fleet: whole runs are
  dispatched onto its one ``multiprocessing`` pool (no per-run pools),
  dead or stuck workers are noticed and the pool respawned, lost runs
  re-dispatched, and a broken fleet degrades to inline execution instead
  of dropping traffic (``workers=0`` starts out inline);
- :mod:`repro.serve.worker` — the run itself, as a worker executes it;
- :mod:`repro.serve.server` — the stdlib ``ThreadingHTTPServer`` front
  end (``POST /runs``, ``GET /runs/<id>``, ``GET /runs/<id>/metrics``,
  ``POST /runs/<id>/cancel``, ``GET /stats``);
- :mod:`repro.serve.client` — a stdlib urllib client plus the
  ``python -m repro.serve.client`` CLI used by CI.

Start a service with ``python -m repro.serve --root DIR --port 8123``.
"""

from repro.serve.registry import RUN_STATES, RunRecord, RunRegistry

#: base and cap (seconds) of the fleet's re-dispatch backoff
RETRY_BACKOFF = (0.05, 1.0)


def capped_backoff(base: float, cap: float, attempt: int) -> float:
    """Delay before retry number ``attempt`` (0-based): ``base`` doubling
    per attempt up to ``cap``.  Callers that want jitter apply it."""
    return min(cap, base * 2 ** attempt)


__all__ = [
    "capped_backoff",
    "RETRY_BACKOFF",
    "RUN_STATES",
    "RunRecord",
    "RunRegistry",
]
