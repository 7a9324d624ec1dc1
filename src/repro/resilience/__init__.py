"""Fault tolerance for the CRoCCo runtime.

The paper's 1024-node campaigns only complete because the production
stack tolerates transient failures — node loss, blown-up steps near
strong shocks, interrupted writes.  This package is the reproduction's
counterpart, wired through the task runtime, the driver and the I/O
layer:

- :mod:`repro.resilience.faults` — a deterministic fault-injection
  harness (seeded plans via ``resilience.faults.*`` deck keys or the
  ``REPRO_FAULTS`` env var) so chaos runs are reproducible;
- :mod:`repro.resilience.watchdog` — a solver watchdog that validates
  every completed step (NaN/Inf, CFL blow-up),
  rolls failed steps back and retries them, and restores from the last
  good autocheckpoint when a step is unrecoverable;
- :mod:`repro.resilience.stats` — the shared counters the observability
  layer samples as ``resilience.*`` gauges.

Crash-safe checkpointing (temp dir + atomic rename, per-level SHA-256
digests) lives in :mod:`repro.io.checkpoint`; supervision of the service
fleet's worker processes (dead and stuck workers, re-dispatch, inline
fallback) in :mod:`repro.serve.fleet`.
"""

from repro.resilience.faults import (FaultInjector, InjectedCheckpointCrash,
                                     InjectedCommDrop, InjectedFault,
                                     InjectedTaskError)
from repro.resilience.stats import ResilienceStats
from repro.resilience.watchdog import (StepFailure, StepWatchdog,
                                       UnrecoverableStepError)

__all__ = [
    "FaultInjector",
    "InjectedFault",
    "InjectedTaskError",
    "InjectedCommDrop",
    "InjectedCheckpointCrash",
    "ResilienceStats",
    "StepWatchdog",
    "StepFailure",
    "UnrecoverableStepError",
]
