"""Hypothesis profiles. CI runs with HYPOTHESIS_PROFILE=ci, which draws the
same examples on every run, so a property failure there reproduces locally
under the same variable."""
import contextlib
import os
import warnings

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# On a failing property, hypothesis's pytest plugin imports
# hypothesis.extra._patching, which imports libcst, which raises a
# DeprecationWarning. Under -W error that import fails inside pytest's
# reporting, which prints INTERNALERROR instead of the falsifying example.
# Importing the module once here, with that warning ignored, leaves the
# plugin nothing to import; like the plugin, skip it when libcst is missing.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
