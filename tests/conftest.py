import numpy as np
import pytest

from oscat.acceptance import random_cptp, random_superop  # noqa: F401  (re-exported to tests)
from oscat.config import RunConfig


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def config():
    return RunConfig(seed=20240817)
