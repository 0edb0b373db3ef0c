"""Shared test configuration.

Every property test runs under one hypothesis profile: no per-example
deadline, because an example's run time depends on the host, and
derandomized draws, so that every run of the suite tests the same
examples.  The models_built fixture records each dynamics.Model a test
constructs.
"""

import pytest
from hypothesis import settings

settings.register_profile("ionpair", deadline=None, derandomize=True)
settings.load_profile("ionpair")


@pytest.fixture
def models_built(monkeypatch):
    """The params of every dynamics.Model built while the test runs."""
    from ionpair import dynamics
    made = []
    init = dynamics.Model.__init__

    def counted(self, params):
        made.append(params)
        init(self, params)

    monkeypatch.setattr(dynamics.Model, "__init__", counted)
    return made
