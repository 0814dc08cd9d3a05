"""Warnings as errors and the seeded ``rng`` fixture for the test suite;
the random-matrix helpers are in random_matrices.py."""

import pathlib

import numpy as np
import pytest

from random_matrices import make_rng

TESTS = pathlib.Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    # any warning fails a test of this directory; the benchmark's own
    # tests keep the default filters when run in the same session
    for item in items:
        if TESTS in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(20250822)
