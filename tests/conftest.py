"""Shared fixtures: small sample sets used across the test modules."""

import tracemalloc

import numpy as np
import pytest

from blockrat import SampleSet, logspace_imaginary
from blockrat.cli import problem_toy1, problem_toy2


@pytest.fixture(scope="session")
def toy1():
    return problem_toy1()


@pytest.fixture(scope="session")
def toy2():
    return problem_toy2()


@pytest.fixture()
def scalar_onepole():
    """10 samples of f(z) = 1/(z+1) on a log grid up the imaginary axis."""
    pts = logspace_imaginary(1, 100, 10)
    return pts, 1.0 / (pts + 1)


def constant_samples(G, ell=8):
    pts = logspace_imaginary(1, 10, ell)
    return SampleSet(pts, np.tile(np.asarray(G, dtype=complex), (ell, 1, 1)))


def random_samples(ell, seed=0):
    """ell random 2x2 complex samples on a log grid up the imaginary axis."""
    rng = np.random.default_rng(seed)
    pts = logspace_imaginary(1, 10, max(ell, 2))[:ell]
    return SampleSet(pts, rng.normal(size=(ell, 2, 2)) + 1j * rng.normal(size=(ell, 2, 2)))


def peak_bytes(f):
    """The peak of the memory tracemalloc traces while f() runs."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
