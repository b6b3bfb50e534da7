"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` replays the examples a CI run drew."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
