import os

import numpy as np
import pytest

from risjam.channel import EnvironmentSpec, Position, synthesize_environment

# The CLI runs and demos the tests start as subprocesses fail on a
# RuntimeWarning, as the tests themselves do (filterwarnings in
# pyproject.toml).
os.environ["PYTHONWARNINGS"] = "error::RuntimeWarning"


def make_small_spec(**overrides) -> EnvironmentSpec:
    """Four radios and a small surface; fast to synthesize."""
    kwargs = dict(
        devices={
            "D0": Position(3.0, 3.0, 1.0),
            "A": Position(2.0, 1.0, 1.0),
            "B": Position(1.1, 2.2, 1.0),
            "C": Position(2.8, 0.6, 1.0),
        },
        attacker_position=Position(0.1, 0.1, 1.0),
        n_elements=16,
        scatter_count=32,
    )
    kwargs.update(overrides)
    return EnvironmentSpec(**kwargs)


@pytest.fixture
def small_env():
    return synthesize_environment(make_small_spec(), 99)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
