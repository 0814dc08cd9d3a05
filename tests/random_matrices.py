"""Seeded random matrices shared by the test modules.

A plain module rather than conftest.py, so that the tests import it by a
name no other test directory uses and tests/ and perfbench/tests run in
one pytest session.
"""

import numpy as np


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
