"""Persistent run registry: one directory per run, states, priorities.

Layout under the service root::

    <root>/runs/<id>/
        deck.inputs     the submitted input deck (verbatim text)
        run.json        the registry record (atomically rewritten on change)
        metrics.jsonl   streamed per-step observability record (the worker)
        trace.json      Chrome trace (optional, worker)
        result.json     terminal summary written by the worker
        CANCEL          flag file: a running run polls this between steps

The in-memory index is rebuilt from disk on startup, so a restarted
service keeps its history; runs found in state ``running`` at startup
were orphaned by a crash and are **requeued** (promoted back to
resumable work — the worker resumes them from their last valid
autocheckpoint) rather than failed.  All mutations are serialized under
one lock (HTTP handler threads and the fleet pump share the registry)
and every record change is persisted with an atomic replace, so a
killed service never leaves a torn ``run.json``.  Torn records from
*outside* the atomic path (filesystem damage, the chaos harness) are
salvaged from the run directory's ground truth — the deck plus
``result.json`` — so even a mangled index completes every run exactly
once.

Submissions may carry an **idempotency key**: re-submitting the same
key returns the already-registered run instead of creating a duplicate,
which is what makes client-side retry of a torn/timed-out POST safe.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

RUN_STATES = ("queued", "running", "done", "failed", "cancelled")

#: states a run can no longer leave
TERMINAL_STATES = ("done", "failed", "cancelled")

DECK_NAME = "deck.inputs"
RECORD_NAME = "run.json"
RESULT_NAME = "result.json"
CANCEL_NAME = "CANCEL"
#: flag file: a running run drains to a checkpoint at the next step
#: boundary and reports ``suspended`` (graceful shutdown / drain)
DRAIN_NAME = "DRAIN"


@dataclass
class RunRecord:
    """One run's registry entry (the ``run.json`` schema)."""

    id: str
    state: str = "queued"
    priority: int = 0
    label: str = ""
    #: service-enforced budgets (None = unbounded)
    max_steps: Optional[int] = None
    max_wall_s: Optional[float] = None
    #: optional override of the deck's run.steps
    steps: Optional[int] = None
    #: record a Chrome trace alongside the metrics JSONL
    trace: bool = False
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: why the run ended (budget message, error, "cancelled by request")
    reason: str = ""
    #: fleet lane that ran it (0 = inline/driver)
    worker: Optional[int] = None
    #: dispatch attempts (>1 means the supervisor re-submitted it)
    attempts: int = 0
    #: client-supplied dedupe token (same key = same run, never two)
    idempotency_key: str = ""
    #: times this run was promoted back to ``queued`` (drain, orphan
    #: reconciliation after a crashed service, fleet shutdown)
    requeues: int = 0
    #: terminal summary from the worker's result.json
    result: dict = field(default_factory=dict)

    @property
    def latency_s(self) -> Optional[float]:
        """Submit-to-finish seconds (the run report's ``latency=``)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def summary(self) -> dict:
        out = asdict(self)
        out["latency_s"] = self.latency_s
        return out


class RunRegistry:
    """Thread-safe, disk-persistent index of every submitted run."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.runs_dir = self.root / "runs"
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._records: Dict[str, RunRecord] = {}
        self._by_key: Dict[str, str] = {}
        self._seq = 0
        #: orphaned ``running`` runs promoted back to ``queued`` at startup
        self.orphans_requeued = 0
        #: torn run.json files rebuilt from the run directory at startup
        self.torn_records_salvaged = 0
        #: torn/unparsable run.json files skipped at startup (no deck to
        #: salvage from)
        self.torn_records_skipped = 0
        #: submissions answered from the idempotency-key index
        self.deduped_submissions = 0
        self._load_existing()

    # -- persistence -------------------------------------------------------
    def run_dir(self, run_id: str) -> Path:
        return self.runs_dir / run_id

    def _save(self, rec: RunRecord) -> None:
        path = self.run_dir(rec.id) / RECORD_NAME
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as f:
            json.dump(asdict(rec), f, indent=1)
        os.replace(tmp, path)

    def _load_existing(self) -> None:
        for d in sorted(self.runs_dir.iterdir()) if self.runs_dir.exists() else []:
            rec_path = d / RECORD_NAME
            if not d.is_dir() or not rec_path.exists():
                continue
            try:
                data = json.loads(rec_path.read_text())
                rec = RunRecord(**{k: v for k, v in data.items()
                                   if k in RunRecord.__dataclass_fields__})
            except (ValueError, TypeError):
                # torn record: rebuild it from the run directory so the
                # run still completes exactly once (deck + result.json
                # carry enough truth); skip only when there is nothing
                # to salvage from
                rec = self._salvage(d)
                if rec is None:
                    self.torn_records_skipped += 1
                    continue
                self.torn_records_salvaged += 1
            if rec.state == "running":
                # orphaned by a crashed/killed service process: promote it
                # back to resumable work — the worker picks the run up from
                # its last valid autocheckpoint instead of replaying it
                rec.state = "queued"
                rec.reason = "orphaned by service restart; requeued"
                rec.started_at = None
                rec.requeues += 1
                self.orphans_requeued += 1
                # a stale drain flag must not immediately re-suspend it
                (d / DRAIN_NAME).unlink(missing_ok=True)
                self._save(rec)
            self._records[rec.id] = rec
            if rec.idempotency_key:
                self._by_key[rec.idempotency_key] = rec.id
            try:
                self._seq = max(self._seq, int(rec.id.lstrip("r")))
            except ValueError:
                pass

    def _salvage(self, d: Path) -> Optional[RunRecord]:
        """Rebuild a torn record from its run directory's ground truth.

        The deck is the run's identity; a parseable ``result.json``
        proves the run already finished (its status is authoritative),
        otherwise the run is requeued so it still executes exactly once.
        Returns None when even the deck is gone.
        """
        if not (d / DECK_NAME).exists():
            return None
        rec = RunRecord(id=d.name,
                        reason="registry record torn; salvaged from run "
                               "directory", submitted_at=time.time())
        result = None
        try:
            result = json.loads((d / RESULT_NAME).read_text())
        except (OSError, ValueError):
            pass
        if (isinstance(result, dict)
                and result.get("status") in TERMINAL_STATES):
            rec.state = result["status"]
            rec.result = result
            rec.finished_at = time.time()
        else:
            rec.requeues = 1
            (d / DRAIN_NAME).unlink(missing_ok=True)
        self._save(rec)
        return rec

    # -- submission --------------------------------------------------------
    def submit(self, deck_text: str, priority: int = 0, label: str = "",
               max_steps: Optional[int] = None,
               max_wall_s: Optional[float] = None,
               steps: Optional[int] = None, trace: bool = False,
               idempotency_key: str = "") -> RunRecord:
        """Queue one run: create its directory, persist deck + record.

        A repeated ``idempotency_key`` returns the run it already names
        (whatever its state) instead of creating a duplicate — retried
        submissions are absorbed, never re-executed.
        """
        with self._lock:
            if idempotency_key:
                existing = self._by_key.get(idempotency_key)
                if existing is not None:
                    self.deduped_submissions += 1
                    return self._records[existing]
            self._seq += 1
            rec = RunRecord(
                id=f"r{self._seq:05d}", priority=int(priority),
                label=str(label),
                max_steps=int(max_steps) if max_steps else None,
                max_wall_s=float(max_wall_s) if max_wall_s else None,
                steps=int(steps) if steps else None, trace=bool(trace),
                idempotency_key=str(idempotency_key or ""),
                submitted_at=time.time())
            d = self.run_dir(rec.id)
            d.mkdir(parents=True, exist_ok=True)
            (d / DECK_NAME).write_text(deck_text)
            self._records[rec.id] = rec
            if rec.idempotency_key:
                self._by_key[rec.idempotency_key] = rec.id
            self._save(rec)
            return rec

    # -- queries -----------------------------------------------------------
    def get(self, run_id: str) -> Optional[RunRecord]:
        with self._lock:
            return self._records.get(run_id)

    def lookup_key(self, idempotency_key: str) -> Optional[RunRecord]:
        """The run an idempotency key already names, if any."""
        with self._lock:
            rid = self._by_key.get(idempotency_key)
            return self._records.get(rid) if rid else None

    def list(self, state: Optional[str] = None) -> List[RunRecord]:
        with self._lock:
            recs = sorted(self._records.values(), key=lambda r: r.id)
        if state is not None:
            recs = [r for r in recs if r.state == state]
        return recs

    def counts(self) -> Dict[str, int]:
        with self._lock:
            out = {s: 0 for s in RUN_STATES}
            for rec in self._records.values():
                out[rec.state] = out.get(rec.state, 0) + 1
            return out

    # -- scheduling --------------------------------------------------------
    def claim_next(self) -> Optional[RunRecord]:
        """Atomically move the best queued run to ``running``.

        Highest priority first; FIFO (submission order) within a
        priority class.  Returns None when nothing is queued.
        """
        with self._lock:
            queued = [r for r in self._records.values() if r.state == "queued"]
            if not queued:
                return None
            rec = min(queued, key=lambda r: (-r.priority, r.id))
            rec.state = "running"
            rec.started_at = time.time()
            rec.attempts += 1
            # a requeued run must not resurrect a spent drain request
            (self.run_dir(rec.id) / DRAIN_NAME).unlink(missing_ok=True)
            self._save(rec)
            return rec

    def note_resubmit(self, run_id: str) -> None:
        """Count a supervisor re-submission against the run."""
        with self._lock:
            rec = self._records.get(run_id)
            if rec is not None:
                rec.attempts += 1
                self._save(rec)

    def requeue(self, run_id: str, reason: str = "") -> Optional[RunRecord]:
        """Promote a ``running`` run back to ``queued`` (resumable work).

        Used when a run is drained to a checkpoint (graceful shutdown),
        when the fleet stops with the run still in flight, and by orphan
        reconciliation at startup.  Terminal runs are left untouched.
        """
        with self._lock:
            rec = self._records.get(run_id)
            if rec is None or rec.state != "running":
                return rec
            rec.state = "queued"
            rec.reason = reason
            rec.started_at = None
            rec.requeues += 1
            (self.run_dir(run_id) / DRAIN_NAME).unlink(missing_ok=True)
            self._save(rec)
            return rec

    def request_drain(self, run_id: str) -> bool:
        """Raise the run's DRAIN flag (checkpoint + suspend at the next
        step boundary); True if the run was running."""
        with self._lock:
            rec = self._records.get(run_id)
            if rec is None or rec.state != "running":
                return False
            (self.run_dir(run_id) / DRAIN_NAME).touch()
            return True

    # -- completion --------------------------------------------------------
    def finish(self, run_id: str, state: str, reason: str = "",
               worker: Optional[int] = None,
               result: Optional[dict] = None) -> Optional[RunRecord]:
        if state not in TERMINAL_STATES:
            raise ValueError(f"finish() needs a terminal state, got {state!r}")
        with self._lock:
            rec = self._records.get(run_id)
            if rec is None or rec.state in TERMINAL_STATES:
                return rec
            rec.state = state
            rec.reason = reason
            rec.worker = worker
            rec.finished_at = time.time()
            if result:
                rec.result = result
            self._save(rec)
            return rec

    # -- cancellation ------------------------------------------------------
    def cancel(self, run_id: str) -> Optional[str]:
        """Request cancellation; returns the resulting state or None.

        A queued run is cancelled immediately; a running run gets its
        ``CANCEL`` flag raised and finishes at the next step boundary; a
        terminal run is left untouched (its state is returned).
        """
        with self._lock:
            rec = self._records.get(run_id)
            if rec is None:
                return None
            if rec.state == "queued":
                rec.state = "cancelled"
                rec.reason = "cancelled before start"
                rec.finished_at = time.time()
                self._save(rec)
                return rec.state
            if rec.state == "running":
                (self.run_dir(run_id) / CANCEL_NAME).touch()
                return "cancelling"
            return rec.state

    # -- worker-side results -----------------------------------------------
    def read_result(self, run_id: str) -> Optional[dict]:
        """The worker-written ``result.json``, or None if absent/torn."""
        path = self.run_dir(run_id) / RESULT_NAME
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None
