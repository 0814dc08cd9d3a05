"""The seeded ``rng`` fixture for the test suite (pyproject.toml makes
every warning an error); the random-matrix helpers are in
random_matrices.py."""

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


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(20250822)
