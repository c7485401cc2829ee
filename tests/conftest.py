"""Hypothesis profiles for the suite.

``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile, which prints the
``@reproduce_failure`` blob of a failing example so that a failure seen once
can be replayed. It changes no example count, deadline or seed.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
