"""Hypothesis profile for CI: with the CI environment variable set (GitHub
Actions sets CI=true), examples are drawn from a fixed seed, so a CI run is
reproducible; example counts stay as each test sets them."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
