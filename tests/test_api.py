"""The package's public names."""

import inspect

import ionpair
from ionpair import dynamics


def test_every_exported_name_resolves():
    assert len(set(ionpair.__all__)) == len(ionpair.__all__)
    for name in ionpair.__all__:
        getattr(ionpair, name)


def test_master_equation_has_one_entry():
    # every read-out goes through Model(params); the functions that took
    # a complex generator are gone
    for name in ("steady_state", "propagate", "propagate_populations",
                 "integrate", "populations"):
        assert not hasattr(ionpair, name), name
        assert not hasattr(dynamics, name), name
    assert not hasattr(dynamics, "_modes")
    assert not hasattr(dynamics.Model, "from_matrix")
    assert list(inspect.signature(dynamics.Model).parameters) == ["params"]
