"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.config import default_arch, small_test_arch


@pytest.fixture
def arch():
    """The tiny test architecture (fast to simulate)."""
    return small_test_arch()


@pytest.fixture
def table1_arch():
    """The paper's default architecture (Table I)."""
    return default_arch()


@pytest.fixture
def rng_calls(monkeypatch):
    """Every ``np.random.default_rng`` call made while the test runs
    (a graph's parameters are drawn by exactly one, on their first read)."""
    calls = []
    default_rng = np.random.default_rng

    def counting(*args, **kwargs):
        calls.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return calls
