"""Hypothesis profiles for the tier-1 suite.

``ci`` (the default, and what the workflow selects through
``HYPOTHESIS_PROFILE``) is derandomized with a bounded example count and
no deadline, so a property test draws the same layouts on every run and a
slow shared runner cannot fail it; ``dev`` explores with fresh random
examples.  A test's own ``@settings(max_examples=...)`` still applies.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=25,
                          deadline=None)
settings.register_profile("dev", max_examples=200, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
