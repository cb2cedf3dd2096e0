"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` derandomizes the
property tests, so a CI run draws the same examples every time."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
