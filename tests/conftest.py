"""Warnings as errors and the seeded ``rng`` fixture for the test suite;
the random-matrix helpers are in random_matrices.py."""

import pathlib
import warnings

import numpy as np
import pytest

from random_matrices import make_rng

# hypothesis's report of a failing example imports this module, whose
# import warns through mypy_extensions; under a test's "error" filter
# that warning would end the session, so it is imported here once
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict",
                            DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

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
