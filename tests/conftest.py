import collections

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


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counter of np.linalg calls by function name, made while the test runs.

    It sees the calls that look the function up on `np.linalg` when they are
    made, which is how oscat calls LAPACK.
    """
    calls = collections.Counter()
    for name in dir(np.linalg):
        fn = getattr(np.linalg, name)
        if name.startswith("_") or isinstance(fn, type) or not callable(fn):
            continue

        def spy(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls
