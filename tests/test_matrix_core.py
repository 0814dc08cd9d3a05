"""Dense matrix utilities: norms, inverses, splittings, matrix functions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from singwave.errors import (
    DefectiveMatrix,
    DomainError,
    NonFiniteValue,
)
from singwave.matrix_core import (
    as_matrix,
    core_nilpotent,
    drazin_inverse,
    generalized_inverse,
    kernel_invariance_defect,
    matrix_function,
    mitra_solve,
    one_norm,
    rank_and_kernel,
)

from conftest import make_rng, random_complex, random_rank_matrix


# ---------------------------------------------------------------- one_norm

def test_one_norm_known_values():
    assert one_norm([[1, -2], [3, 4]]) == 6.0
    assert one_norm(np.eye(5)) == 1.0
    assert one_norm(np.zeros((3, 3))) == 0.0
    assert one_norm([3.0, -4.0]) == 7.0
    assert one_norm(np.zeros((0, 0))) == 0.0


def test_one_norm_zero_iff_zero(rng):
    A = random_complex(rng, 4, 4)
    assert one_norm(A) > 0.0
    assert one_norm(0 * A) == 0.0


def test_one_norm_submultiplicative(rng):
    for _ in range(50):
        A = random_complex(rng, 5, 5)
        B = random_complex(rng, 5, 5)
        assert one_norm(A @ B) <= one_norm(A) * one_norm(B) + 1e-12


# ---------------------------------------------------------- rank_and_kernel

def test_rank_and_kernel_diagonal():
    rank, kernel = rank_and_kernel(np.diag([1.0, 0.0]))
    assert rank == 1
    assert kernel.shape == (2, 1)
    assert_allclose(np.abs(kernel[:, 0]), [0.0, 1.0], atol=1e-14)


def test_rank_and_kernel_invertible(rng):
    A = random_complex(rng, 3, 3) + 3 * np.eye(3)
    rank, kernel = rank_and_kernel(A)
    assert rank == 3
    assert kernel.shape == (3, 0)


def test_rank_and_kernel_single_column_rows():
    # rows all zero except the last column: rank one, kernel holds the
    # first two coordinate directions
    G = np.zeros((6, 3), dtype=complex)
    G[0, 2] = 2.0
    G[2, 2] = 2.0
    rank, kernel = rank_and_kernel(G)
    assert rank == 1
    assert kernel.shape == (3, 2)
    for vec in (np.eye(3)[0], np.eye(3)[1]):
        # each direction is reproduced by its kernel-basis expansion
        assert_allclose(kernel @ (kernel.conj().T @ vec), vec, atol=1e-12)


def test_rank_and_kernel_orthonormal(rng):
    A = random_rank_matrix(rng, 5, 2)
    rank, kernel = rank_and_kernel(A)
    assert rank == 2
    assert_allclose(kernel.conj().T @ kernel, np.eye(3), atol=1e-12)
    assert one_norm(A @ kernel) <= 1e-12 * (1 + one_norm(A))


# ------------------------------------------------------ generalized_inverse

def test_generalized_inverse_diagonal():
    assert_allclose(generalized_inverse(np.diag([2.0, 0.0])),
                    np.diag([0.5, 0.0]), atol=1e-14)
    assert_allclose(generalized_inverse(np.diag([2.0, 4.0])),
                    np.diag([0.5, 0.25]), atol=1e-14)


def test_generalized_inverse_axiom_rank2(rng):
    A = random_rank_matrix(rng, 4, 2)
    G = generalized_inverse(A)
    assert one_norm(A @ G @ A - A) <= 1e-10 * (1 + one_norm(A))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 6))
def test_generalized_inverse_axiom_random(seed, n):
    rng = make_rng(seed)
    A = random_rank_matrix(rng, n, int(rng.integers(0, n + 1)))
    G = generalized_inverse(A)
    assert one_norm(A @ G @ A - A) <= 1e-9 * (1 + one_norm(A))


# ---------------------------------------------------------------- mitra_solve

def test_mitra_consistent_diagonal():
    sol = mitra_solve(np.diag([1.0, 0.0]), [2.0, 0.0])
    assert sol.consistent
    assert_allclose(sol.particular, [2.0, 0.0], atol=1e-14)
    assert_allclose(sol.kernel_projector, np.diag([0.0, 1.0]), atol=1e-14)


def test_mitra_inconsistent_diagonal():
    sol = mitra_solve(np.diag([1.0, 0.0]), [0.0, 1.0])
    assert not sol.consistent


def test_mitra_solution_family(rng):
    A = random_rank_matrix(rng, 5, 3)
    x0 = random_complex(rng, 5)
    b = A @ x0
    sol = mitra_solve(A, b)
    assert sol.consistent
    for _ in range(10):
        z = random_complex(rng, 5)
        x = sol.particular + sol.kernel_projector @ z
        assert one_norm(A @ x - b) <= 1e-9 * (1 + one_norm(b))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_mitra_consistency_matches_least_squares(seed):
    rng = make_rng(seed)
    n = int(rng.integers(1, 7))
    A = random_rank_matrix(rng, n, int(rng.integers(0, n + 1)))
    b = random_complex(rng, n)
    sol = mitra_solve(A, b)
    x_ls, *_ = np.linalg.lstsq(A, b, rcond=None)
    ls_residual = one_norm(A @ x_ls - b)
    assert sol.consistent == (ls_residual <= 1e-8 * (1 + one_norm(b)))


# ------------------------------------------------------------- core_nilpotent

def test_core_nilpotent_invertible(rng):
    A = random_complex(rng, 4, 4) + 4 * np.eye(4)
    dec = core_nilpotent(A)
    assert (dec.p, dec.q, dec.index_k) == (4, 0, 0)
    assert one_norm(dec.reconstruct() - A) <= 1e-9 * (1 + one_norm(A))


def test_core_nilpotent_shift_block():
    dec = core_nilpotent(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert (dec.p, dec.q, dec.index_k) == (0, 2, 2)
    assert one_norm(dec.Nblock @ dec.Nblock) == 0.0


def test_core_nilpotent_zero_matrix():
    dec = core_nilpotent(np.zeros((3, 3)))
    assert (dec.p, dec.q, dec.index_k) == (0, 3, 1)


def test_core_nilpotent_mixed_spectrum():
    # eigenvalues {1, 1/2, 0}: two-dimensional core, one nilpotent direction
    M = np.array([[1.0, 0.0, 1.0],
                  [0.0, 0.5, 0.0],
                  [0.0, 0.0, 0.0]], dtype=complex)
    dec = core_nilpotent(M)
    assert (dec.p, dec.q, dec.index_k) == (2, 1, 1)
    core_eigs = np.sort(np.abs(np.linalg.eigvals(dec.C)))
    assert_allclose(core_eigs, [0.5, 1.0], atol=1e-12)


def test_core_nilpotent_reconstruction_random(rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        A = random_rank_matrix(rng, n, int(rng.integers(0, n + 1)))
        dec = core_nilpotent(A)
        assert dec.p + dec.q == n
        assert one_norm(dec.reconstruct() - A) <= 1e-9 * (1 + one_norm(A))


# ------------------------------------------------------------- drazin_inverse

def test_drazin_identity():
    D, index = drazin_inverse(np.eye(3))
    assert_allclose(D, np.eye(3), atol=1e-12)
    assert index == 0


def test_drazin_nilpotent():
    D, index = drazin_inverse(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert_allclose(D, np.zeros((2, 2)), atol=1e-12)
    assert index == 2


def test_drazin_mixed_block_closed_form():
    M = np.array([[1.0, 0.0, 1.0],
                  [0.0, 0.5, 0.0],
                  [0.0, 0.0, 0.0]], dtype=complex)
    D, index = drazin_inverse(M)
    assert index == 1
    expected = np.array([[1.0, 0.0, 1.0],
                         [0.0, 2.0, 0.0],
                         [0.0, 0.0, 0.0]])
    assert_allclose(D, expected, atol=1e-12)


def _drazin_axiom_defect(A, D, index):
    k = max(index, 0)
    Ak = np.linalg.matrix_power(A, k)
    return max(one_norm(D @ A @ D - D),
               one_norm(D @ A - A @ D),
               one_norm(np.linalg.matrix_power(A, k + 1) @ D - Ak))


def test_drazin_axioms_random(rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        A = random_rank_matrix(rng, n, int(rng.integers(0, n + 1)))
        eigs = np.linalg.eigvals(A)
        if np.any((np.abs(eigs) > 1e-12) & (np.abs(eigs) < 1e-5)):
            continue  # borderline cluster: covered by the tolerance contract
        D, index = drazin_inverse(A)
        tol = 1e-9 * (1 + one_norm(A)) ** 3
        assert _drazin_axiom_defect(A, D, index) <= tol


def test_drazin_is_polynomial_in_matrix(rng):
    # the inverse lies in span{I, A, A^2, ...}
    A = random_rank_matrix(rng, 4, 3)
    D, _ = drazin_inverse(A)
    powers = [np.eye(4, dtype=complex)]
    for _ in range(8):
        powers.append(powers[-1] @ A)
    basis = np.stack([P.reshape(-1) for P in powers], axis=1)
    coef, *_ = np.linalg.lstsq(basis, D.reshape(-1), rcond=None)
    fit = (basis @ coef).reshape(4, 4)
    assert one_norm(fit - D) <= 1e-8 * (1 + one_norm(D))


# ------------------------------------------------------------ matrix_function

def test_matrix_function_identity(rng):
    A = random_complex(rng, 3, 3)
    assert_allclose(matrix_function(A, lambda w: w), A, atol=1e-12)


def test_matrix_function_sqrt_diagonal():
    out = matrix_function(np.diag([4.0, 9.0]), np.sqrt)
    assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-12)


def test_matrix_function_spectral_mapping(rng):
    V = random_complex(rng, 4, 4) + 2 * np.eye(4)
    w = np.array([1.0, 2.0, 3.0, 4.0])
    A = (V * w) @ np.linalg.inv(V)
    out = matrix_function(A, np.sqrt)
    got = np.sort_complex(np.linalg.eigvals(out))
    assert_allclose(got, np.sqrt(w), atol=1e-8)


def test_matrix_function_stacked_maps(rng):
    # one eigendecomposition serves a whole stack of maps
    V = random_complex(rng, 3, 3) + 2 * np.eye(3)
    A = (V * np.array([1.0, 4.0, 9.0])) @ np.linalg.inv(V)
    scales = np.array([0.5, 2.0])
    out = matrix_function(A, lambda w: scales[:, None] * np.sqrt(w))
    assert out.shape == (2, 3, 3)
    for s, Z in zip(scales, out):
        assert_allclose(Z, s * matrix_function(A, np.sqrt), atol=1e-12)


def test_matrix_function_rejects_defective():
    J = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DefectiveMatrix):
        matrix_function(J, np.sqrt)


def test_matrix_function_domain_error():
    with pytest.raises(DomainError):
        matrix_function(np.eye(2), lambda w: np.full_like(w, np.nan))


# ----------------------------------------------------- kernel invariance

def test_kernel_invariance_invertible(rng):
    B = random_complex(rng, 3, 3) + 3 * np.eye(3)
    A = random_complex(rng, 3, 3)
    assert kernel_invariance_defect(B, A) <= 1e-10


def test_kernel_invariance_violated():
    B = np.diag([1.0, 0.0])
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert kernel_invariance_defect(B, A) > 0.5


def test_kernel_invariance_rectangular():
    # tall map whose kernel is the first two coordinates; the action keeps it
    B = np.zeros((6, 3), dtype=complex)
    B[0, 2] = 2.0
    B[2, 2] = 2.0
    A = np.diag([0.0, 1.0, 0.0]).astype(complex)
    assert kernel_invariance_defect(B, A) <= 1e-10


# ------------------------------------------------------------- validation

def test_as_matrix_rejects_nonfinite():
    with pytest.raises(NonFiniteValue):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])


def test_as_matrix_rejects_wrong_ndim():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
