"""Shared test configuration.

Every property test runs under one hypothesis profile: no per-example
deadline, because an example's run time depends on the host, and
derandomized draws, so that every run of the suite tests the same
examples.
"""

from hypothesis import settings

settings.register_profile("ionpair", deadline=None, derandomize=True)
settings.load_profile("ionpair")
