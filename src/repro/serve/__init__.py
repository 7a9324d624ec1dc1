"""``repro.serve``: a multi-run simulation service on shared infrastructure.

The paper's porting story ends at one big run on one big machine; the
serving layer turns the reproduction into the multi-tenant shape a
production system needs — many concurrent simulations sharing one
supervised worker fleet, one cross-run immutable cache, and one HTTP
front door:

- :mod:`repro.serve.registry` — persistent run registry (states
  ``queued/running/done/failed/cancelled``, priorities, per-run step and
  wall budgets), one directory per run holding the deck, the
  observability artifacts, and the result record;
- :mod:`repro.serve.cache` — cross-run immutable cache (grid
  coordinates and the 27-component curvilinear metrics arrays) keyed by
  a canonical case-config hash, with hit/miss counters;
- :mod:`repro.serve.fleet` — the shared worker fleet: whole runs are
  dispatched as tasks onto one
  :class:`~repro.resilience.supervisor.SupervisedPoolExecutor` (reusing
  ``runtime.executors`` — no per-run pools), so dead workers are
  respawned, lost runs re-submitted, and a broken fleet degrades to
  inline execution instead of dropping traffic;
- :mod:`repro.serve.server` — the stdlib ``ThreadingHTTPServer`` front
  end (``POST /runs``, ``GET /runs/<id>``, ``GET /runs/<id>/metrics``,
  ``POST /runs/<id>/cancel``, ``GET /stats``);
- :mod:`repro.serve.client` — a stdlib urllib client plus the
  ``python -m repro.serve.client`` CLI used by CI.

Start a service with ``python -m repro.serve --root DIR --port 8123``.
"""

from repro.serve.cache import CaseCache, case_config_hash
from repro.serve.registry import RUN_STATES, RunRecord, RunRegistry

__all__ = [
    "CaseCache",
    "case_config_hash",
    "RUN_STATES",
    "RunRecord",
    "RunRegistry",
]
