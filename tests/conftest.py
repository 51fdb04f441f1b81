"""Hypothesis settings. The `ci` profile, chosen with HYPOTHESIS_PROFILE=ci
(as the CI workflow does), draws the same examples on every run and prints
the blob that replays a failing one, so a CI failure reproduces locally;
without it, runs keep Hypothesis's default, randomized profile."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
