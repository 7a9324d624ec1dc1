"""Hypothesis profiles and event-log fixtures for the tier-1 suite.

``ci`` (the default, and what the workflow selects through
``HYPOTHESIS_PROFILE``) is derandomized with a bounded example count and
no deadline, so a property test draws the same layouts on every run and a
slow shared runner cannot fail it; ``dev`` explores with fresh random
examples.  A test's own ``@settings(max_examples=...)`` still applies.

``GpuDevice`` and ``CommLedger`` keep totals, not history.  A test that
asserts on the *sequence* of launches or messages attaches an
:class:`EventLog` (the ``launch_log`` / ``message_log`` fixtures) and
reads the ordered list it collected (``.events``).
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=25,
                          deadline=None)
settings.register_profile("dev", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


class EventLog:
    """A device or ledger listener that keeps what it saw, in order, in
    ``events``."""

    def __init__(self):
        self.events = []

    def on_launch(self, device, rec, wall_seconds):
        self.events.append(rec)

    def on_message(self, msg):
        self.events.append(msg)


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
    """Attach with ``device.add_listener(launch_log)``: ``.events`` is the
    ``LaunchRecord`` of every launch since, in order."""
    return EventLog()


@pytest.fixture
def message_log():
    """Attach with ``ledger.add_listener(message_log)``: ``.events`` is
    every ``Message`` recorded since, in order."""
    return EventLog()
