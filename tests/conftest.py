"""Hypothesis profiles. CI runs with HYPOTHESIS_PROFILE=ci, which draws the
same examples on every run, so a property failure there reproduces locally
under the same variable."""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
