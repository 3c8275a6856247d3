"""Test-suite settings shared by every test module.

The property tests run under a derandomized hypothesis profile: each test
draws its examples from a seed fixed by the test itself, so a failing
example fails again in any checkout, and no example database is kept
(hypothesis sets ``database=None`` when ``derandomize=True``).  A test's own
``@settings`` only overrides the fields it names.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
