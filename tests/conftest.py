"""Shared helpers for the test suite."""

import pathlib

import numpy as np
import pytest

TESTS = pathlib.Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    # any warning fails a test of this directory; the benchmark's own
    # tests keep the default filters when run in the same session
    for item in items:
        if TESTS in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_complex(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_rank_matrix(rng: np.random.Generator, n: int,
                       rank: int) -> np.ndarray:
    """n x n complex matrix of the requested rank."""
    if rank == 0:
        return np.zeros((n, n), dtype=complex)
    X = random_complex(rng, n, rank)
    Y = random_complex(rng, rank, n)
    return X @ Y


def random_real_rank_matrix(rng: np.random.Generator, rows: int, cols: int,
                            rank: int) -> np.ndarray:
    """rows x cols real matrix of the requested rank."""
    return rng.standard_normal((rows, rank)) @ rng.standard_normal(
        (rank, cols))


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(20250822)
