"""Hypothesis profiles and event-log fixtures for the tier-1 suite.

``ci`` (the default, and what the workflow selects through
``HYPOTHESIS_PROFILE``) is derandomized with a bounded example count and
no deadline, so a property test draws the same layouts on every run and a
slow shared runner cannot fail it; ``dev`` explores with fresh random
examples.  A test's own ``@settings(max_examples=...)`` still applies.

``GpuDevice`` and ``CommLedger`` keep totals, not history.  A test that
asserts on the *sequence* of launches or messages takes the ``launch_log``
/ ``message_log`` fixture (or, inside a Hypothesis example, opens
:func:`logged_launches` / :func:`logged_messages`), which wraps the
producer's recording methods for the test's duration, and reads the
ordered list it collected (``.events``, or ``.of(producer)`` for one).
"""

import os
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import settings

from repro.kernels.device import GpuDevice
from repro.mpi.ledger import CommLedger

settings.register_profile("ci", derandomize=True, max_examples=25,
                          deadline=None)
settings.register_profile("dev", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


class EventLog:
    """What the wrapped producers recorded, in order: ``pairs`` of
    ``(producer, record)``."""

    def __init__(self):
        self.pairs = []

    @property
    def events(self):
        """Every record, in order."""
        return [rec for _, rec in self.pairs]

    def of(self, producer):
        """The records of one device or ledger, in order."""
        return [rec for p, rec in self.pairs if p is producer]


@contextmanager
def logged_launches():
    """Log every launch and reduction a ``GpuDevice`` counts while open
    (both go through ``run``).  Each call counts into an empty table that
    is then merged into the device's own, so the log holds exactly the
    ``LaunchRecord`` the device counted."""
    log = EventLog()

    def wrap(real):
        def logged(dev, *args, **kwargs):
            table, dev.table = dev.table, Counter()
            try:
                return real(dev, *args, **kwargs)
            finally:
                new, dev.table = dev.table, table
                table.update(new)
                log.pairs += [(dev, rec) for rec in new.elements()]
        return logged

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GpuDevice, "run", wrap(GpuDevice.run))
        yield log


@contextmanager
def logged_messages():
    """Log every message a ``CommLedger`` counts while open (``record``
    goes through ``record_many``)."""
    log = EventLog()
    real = CommLedger.record_many

    def logged(ledger, messages):
        real(ledger, messages)
        log.pairs += [(ledger, msg) for msg in messages]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CommLedger, "record_many", logged)
        yield log


def no_overlaps(ba):
    """Whether no two boxes of a ``BoxArray`` overlap (each meets only
    itself)."""
    return len(ba.intersect(ba.lohi)[0]) == len(ba)


def trace_events(tracer):
    """A tracer's events in emission order, without the track names."""
    return [e for e in tracer.to_chrome()["traceEvents"] if e["ph"] != "M"]


def profiler_children(prof, parent):
    """``{child: inclusive seconds}`` of every region directly under
    ``parent``, summed over the occurrences of ``parent``."""
    out = {}
    for path, stats in prof._stats.items():
        if len(path) >= 2 and path[-2] == parent:
            out[path[-1]] = out.get(path[-1], 0.0) + stats.inclusive
    return out


@pytest.fixture
def launch_log():
    """``.events`` is the ``LaunchRecord`` of every launch of the test, in
    order."""
    with logged_launches() as log:
        yield log


@pytest.fixture
def message_log():
    """``.events`` is every ``Message`` recorded in the test, in order."""
    with logged_messages() as log:
        yield log
