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


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(random_complex(rng, n, n))
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q


def perturbed_jordan(rng: np.random.Generator, max_rows: int = 12,
                     max_cond: float = 1e4):
    """S J S^-1 for a Jordan matrix J of at most ``max_rows`` rows and a
    random similarity S of 2-norm condition number at most ``max_cond``.

    J's blocks have sizes 1 to 4, each with eigenvalue 0 or a random
    lambda of modulus 0.5 to 2.  Forming the product in floating point
    perturbs it, which splits the eigenvalues of a nilpotent block far
    above round-off.  Returns the matrix, J's nilpotent dimension and its
    nilpotency index (the largest block at 0)."""
    m = int(rng.integers(1, max_rows + 1))
    J = np.zeros((m, m), dtype=complex)
    start = q = index = 0
    while start < m:
        size = int(min(rng.integers(1, 5), m - start))
        rows = np.arange(start, start + size)
        if rng.random() < 0.5:
            q, index = q + size, max(index, size)
        else:
            J[rows, rows] = rng.uniform(0.5, 2.0) * np.exp(
                2j * np.pi * rng.random())
        J[rows[:-1], rows[1:]] = 1.0
        start += size
    sigma = np.logspace(0.0, rng.uniform(0.0, np.log10(max_cond)), m)
    U, V = random_unitary(rng, m), random_unitary(rng, m)
    M = (U * sigma) @ V.conj().T @ J @ (V / sigma) @ U.conj().T
    return M, q, index
