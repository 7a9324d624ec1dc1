"""Shared resilience counters, sampled as ``resilience.*`` gauges.

One :class:`ResilienceStats` instance per simulation is shared by the
fault injector and the step watchdog; the recorder snapshots it once per
timestep and the run report renders the final totals as the "resilience"
section.  The service fleet (:mod:`repro.serve.fleet`) counts into an
instance of its own (``task_retries``, ``task_resubmits``,
``pool_restarts``, ``degraded_to_serial`` — shown under ``/stats``).
"""

from __future__ import annotations

from typing import Dict

#: counters always exported (zero-valued ones included), so a recorded
#: run's resilience section is complete even when nothing went wrong
CORE_COUNTERS = (
    "step_retries",      # watchdog: step re-executions after rollback
    "rollbacks",         # watchdog: state restorations to the step snapshot
    "dt_halvings",       # watchdog: retries escalated to a halved dt
    "recovered_steps",   # watchdog: steps that completed after >=1 retry
    "nan_detections",    # watchdog: non-finite state detections
    "autocheckpoints",   # watchdog: successful periodic checkpoints
    "checkpoint_failures",  # watchdog: interrupted/failed checkpoint writes
    "restores",          # watchdog: restore-from-last-good events
)


class ResilienceStats:
    """A flat bag of monotonically increasing counters."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}

    def inc(self, name: str, n: int = 1) -> int:
        value = self.counters.get(name, 0) + n
        self.counters[name] = value
        return value

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Every core counter (zeros included) plus any extras."""
        out = {name: self.counters.get(name, 0) for name in CORE_COUNTERS}
        for name, value in self.counters.items():
            out[name] = value
        return out

    def __repr__(self) -> str:
        nonzero = {k: v for k, v in sorted(self.counters.items()) if v}
        return f"ResilienceStats({nonzero})"
