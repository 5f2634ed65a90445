"""Test-suite settings shared by every module.

Hypothesis draws its examples from a seed derived from each test, so every
run of the suite checks the same examples and a failure reproduces as is.
Tests that set their own ``@settings`` keep this profile's other values.
"""

from hypothesis import settings

settings.register_profile("spinscape", derandomize=True, deadline=None, database=None)
settings.load_profile("spinscape")
