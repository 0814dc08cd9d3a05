"""Dense matrix utilities: norms, inverses, splittings, matrix functions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from singwave.errors import NoSquareRoot, NonFiniteValue
from singwave.matrix_core import (
    DEFAULT_RANK_TOL,
    as_matrix,
    core_nilpotent,
    kernel_invariance_defect,
    matrix_function,
    min_norm_solve,
    one_norm,
    peak_norm,
    rank_and_kernel,
)

from random_matrices import (
    make_rng,
    perturbed_jordan,
    random_complex,
    random_rank_matrix,
    random_real_rank_matrix,
)
from shifted_pair import drazin_inverse as split_drazin_inverse
from stacked_system import general_solution


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


# --------------------------------------------------------------- peak_norm

def _numpy_peak(A):
    return float(np.abs(A).sum(axis=-1).max())


def _peak_cases(width, rng):
    """Tables of rows of ``width`` entries, real and complex, 1-D to 3-D.

    Each holds one row 1, e, ..., e with e = 2**-53, the largest of the
    table: added left to right it is 1.0 (each 1 + e rounds back to 1),
    while numpy's pairwise sum, from 8 entries on, adds e to e first and
    gets more, so only the order numpy uses gives its bits."""
    tie = np.full(width, 2.0 ** -53)
    tie[0] = 1.0
    for shape in ((width,), (6, width), (3, 4, width)):
        small = rng.standard_normal(shape) * np.exp2(
            rng.integers(-60, 0, shape)) / (2 * width)
        small.reshape(-1, width)[-1] = tie
        for A in (small, small * np.exp(1j * rng.uniform(0, 6.3, shape))):
            zeros = A.copy()
            zeros.reshape(-1)[::3] = -0.0
            yield A
            yield zeros
            for value in (np.nan, np.inf, -np.inf):
                odd = A.copy()
                odd.reshape(-1)[rng.integers(A.size)] = value
                yield odd
            if A.size > 1:
                both = A.copy()
                both.reshape(-1)[:2] = np.inf, np.nan
                yield both


@pytest.mark.parametrize("width", range(1, 17))
def test_peak_norm_has_numpy_sum_bits(width):
    rng = np.random.default_rng(width)
    for A in _peak_cases(width, rng):
        want = _numpy_peak(A)
        assert np.float64(peak_norm(A)).tobytes() == \
            np.float64(want).tobytes(), (A.shape, A.dtype)


def test_peak_norm_of_empty_input_is_zero():
    for shape in ((0,), (0, 3), (3, 0), (2, 0, 4), (2, 3, 0)):
        assert peak_norm(np.zeros(shape)) == 0.0
        assert peak_norm(np.zeros(shape, dtype=complex)) == 0.0


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


# -------------------------------- generalized inverse: min_norm_solve(A, I)

def generalized_inverse(A):
    """The Moore-Penrose inverse of a square A, as the solve applies it."""
    return min_norm_solve(A, np.eye(len(A)))


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


# ------------------------------- general solution of the dense-stack oracle

def test_mitra_consistent_diagonal():
    sol = general_solution(np.diag([1.0, 0.0]), [2.0, 0.0])
    assert sol.consistent
    assert_allclose(sol.particular, [2.0, 0.0], atol=1e-14)
    assert_allclose(sol.kernel @ sol.kernel.conj().T, np.diag([0.0, 1.0]),
                    atol=1e-14)


def test_mitra_inconsistent_diagonal():
    sol = general_solution(np.diag([1.0, 0.0]), [0.0, 1.0])
    assert not sol.consistent


def test_mitra_solution_family(rng):
    A = random_rank_matrix(rng, 5, 3)
    x0 = random_complex(rng, 5)
    b = A @ x0
    sol = general_solution(A, b)
    assert sol.consistent
    projector = sol.kernel @ sol.kernel.conj().T
    for _ in range(10):
        z = random_complex(rng, 5)
        x = sol.particular + projector @ z
        assert one_norm(A @ x - b) <= 1e-9 * (1 + one_norm(b))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_mitra_consistency_matches_least_squares(seed):
    rng = make_rng(seed)
    n = int(rng.integers(1, 7))
    A = random_rank_matrix(rng, n, int(rng.integers(0, n + 1)))
    b = random_complex(rng, n)
    sol = general_solution(A, b)
    x_ls, *_ = np.linalg.lstsq(A, b, rcond=None)
    ls_residual = one_norm(A @ x_ls - b)
    assert sol.consistent == (ls_residual <= 1e-8 * (1 + one_norm(b)))


SHAPES = [(6, 6, 3), (9, 5, 2), (4, 7, 3), (3, 8, 0), (5, 5, 5)]


def _assert_kernel_basis(A, sol, rank):
    n = A.shape[1]
    Z = sol.kernel
    assert Z.shape == (n, n - rank)
    assert_allclose(Z.conj().T @ Z, np.eye(n - rank), atol=1e-12)
    assert one_norm(A @ Z) <= 1e-12 * (1 + one_norm(A))


@pytest.mark.parametrize("rows, cols, rank", SHAPES)
def test_mitra_real_matrix_matches_pinv(rows, cols, rank):
    rng = make_rng(100 * rows + 10 * cols + rank)
    A = random_real_rank_matrix(rng, rows, cols, rank)
    b = A @ random_complex(rng, cols)  # complex and consistent
    sol = general_solution(A, b)
    assert sol.consistent
    expected = np.linalg.pinv(A.astype(complex)) @ b
    assert (np.linalg.norm(sol.particular - expected)
            <= 1e-12 * np.linalg.norm(expected))
    _assert_kernel_basis(A, sol, rank)


@pytest.mark.parametrize("rows, cols, rank", SHAPES)
def test_mitra_complex_matrix_matches_pinv(rows, cols, rank):
    rng = make_rng(100 * rows + 10 * cols + rank)
    A = random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)
    b = A @ random_complex(rng, cols)
    sol = general_solution(A, b)
    assert sol.consistent
    expected = np.linalg.pinv(A) @ b
    assert (np.linalg.norm(sol.particular - expected)
            <= 1e-12 * np.linalg.norm(expected))
    _assert_kernel_basis(A, sol, rank)
    assert_allclose(sol.kernel @ sol.kernel.conj().T,
                    np.eye(cols) - np.linalg.pinv(A) @ A, atol=1e-12)


# ------------------------------------------------------------ min_norm_solve

def _pinv_solve(A, B, tol=DEFAULT_RANK_TOL):
    """The oracle: numpy's pseudoinverse with the same relative cut."""
    return np.linalg.pinv(A, rcond=tol) @ B


# includes (3, 8, 0), the zero matrix
@pytest.mark.parametrize("rows, cols, rank", SHAPES)
def test_min_norm_solve_matches_pinv(rows, cols, rank):
    rng = make_rng(100 * rows + 10 * cols + rank)
    A = random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)
    B = random_complex(rng, rows, 2)
    X, expected = min_norm_solve(A, B), _pinv_solve(A, B)
    assert X.shape == (cols, 2)
    assert_allclose(X, expected, rtol=0,
                    atol=1e-12 * (1 + np.abs(expected).max()))


def test_min_norm_solve_real_zero_matrix():
    X = min_norm_solve(np.zeros((3, 2)), np.ones((3, 1)))
    assert X.shape == (2, 1)
    assert not X.any()


def test_min_norm_solve_cut_is_relative():
    # 1e-6 of the largest stays above a 1e-8 cut and 1e-12 falls below it
    D = np.diag([2.0, 2e-6, 2e-12])
    X = min_norm_solve(D, np.eye(3), tol=1e-8)
    assert_allclose(X, np.diag([0.5, 5e5, 0.0]), rtol=1e-15)
    assert_allclose(X, _pinv_solve(D, np.eye(3), 1e-8), rtol=1e-15)


@pytest.mark.parametrize("rows, cols", [(4, 4), (6, 3), (3, 6)])
def test_min_norm_solve_stack_of_ranks(rows, cols):
    # every stack entry makes its own cut, relative to its own largest
    # singular value
    rng = make_rng(rows * cols)
    ranks = [0, 1, min(rows, cols) - 1, min(rows, cols)]
    A = np.stack([(10.0 ** idx) * random_complex(rng, rows, r)
                  @ random_complex(rng, r, cols)
                  for idx, r in enumerate(ranks)])
    B = random_complex(rng, len(ranks), rows, 2)
    X = min_norm_solve(A, B)
    assert X.shape == (len(ranks), cols, 2)
    for a, b, x in zip(A, B, X):
        expected = _pinv_solve(a, b)
        assert_allclose(x, expected, rtol=0,
                        atol=1e-12 * (1 + np.abs(expected).max()))


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
    dec = core_nilpotent(np.zeros((0, 0)))
    assert (dec.p, dec.q, dec.index_k, dec.T.shape) == (0, 0, 0, (0, 0))


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



def test_core_nilpotent_index_is_the_kernel_chain_length():
    # J_3(0) + J_1(0) + [2]: rank M^j = 5, 3, 2, 1, 1, so the chain has
    # three steps although the nilpotent block has four rows
    M = np.zeros((5, 5), dtype=complex)
    M[0, 1] = M[1, 2] = 1.0
    M[4, 4] = 2.0
    dec = core_nilpotent(M)
    assert (dec.p, dec.q, dec.index_k) == (1, 4, 3)
    assert_allclose(dec.C, [[2.0]], atol=1e-14)


def test_core_nilpotent_perturbed_jordan_stress():
    # round-off in S J S^-1 moves the eigenvalues of a nilpotent block of
    # size 4 by up to (eps cond)^(1/4), far above the cut; its rank does not
    rng = make_rng(5)
    misses = []
    for idx in range(300):
        M, q, index = perturbed_jordan(rng)
        dec = core_nilpotent(M)  # raises on a failed reconstruction
        if (dec.q, dec.index_k) != (q, index):
            misses.append((idx, dec.q, q, dec.index_k, index))
    assert not misses, misses


# ------------------------------------------- Drazin inverse of the split

def drazin_inverse(M):
    """The Drazin inverse and index from one core-nilpotent split."""
    dec = core_nilpotent(M)
    return split_drazin_inverse(dec), dec.index_k


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

def test_matrix_function_identity():
    # identity plus a Jordan coupling: the root of [[1, 1], [0, 1]] is
    # [[1, 1/2], [0, 1]], although the matrix has no eigenvector basis
    assert_allclose(matrix_function(np.eye(3)), np.eye(3), atol=0)
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert_allclose(matrix_function(J), [[1.0, 0.5], [0.0, 1.0]],
                    atol=1e-15)


def test_matrix_function_sqrt_diagonal():
    out = matrix_function(np.diag([4.0, 9.0]))
    assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-12)


def test_matrix_function_spectral_mapping(rng):
    # random upper-triangular stacks with distinct diagonals: U U = T and
    # the diagonal of U holds the principal roots of that of T
    T = np.triu(random_complex(rng, 5, 4, 4))
    T[:, [0, 1], [0, 1]] = [-4.0, 9.0]  # on and off the branch cut
    U = matrix_function(T)
    assert U.shape == T.shape
    assert_allclose(np.tril(U, -1), 0.0, atol=0)
    assert_allclose(U @ U, T, atol=1e-10)
    diag = np.arange(4)
    assert_allclose(U[:, diag, diag], np.sqrt(T[:, diag, diag]), atol=1e-12)
    assert (U[:, diag, diag].real >= 0.0).all()
    assert_allclose(U[:, 0, 0], 2j, atol=1e-15)


def test_matrix_function_stacked_maps(rng):
    # the stack is one call; each entry matches its own call
    T = np.triu(random_complex(rng, 3, 2, 3, 3))
    out = matrix_function(T)
    assert out.shape == (3, 2, 3, 3)
    for idx in np.ndindex(3, 2):
        assert_allclose(out[idx], matrix_function(T[idx]), atol=1e-14)


def test_matrix_function_rejects_defective():
    # a zero block has the root zero; a nilpotent block has none
    assert_allclose(matrix_function(np.zeros((2, 2, 2))), 0.0, atol=0)
    stack = np.zeros((3, 2, 2))
    stack[1, 0, 1] = 1.0
    with pytest.raises(NoSquareRoot) as info:
        matrix_function(stack)
    assert info.value.index == (1,)
    assert info.value.row == 0


def test_matrix_function_domain_error():
    with pytest.raises(ValueError):
        matrix_function(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        matrix_function(np.zeros(3))


# ----------------------------------------------------- kernel invariance

def test_kernel_invariance_invertible(rng):
    B = random_complex(rng, 3, 3) + 3 * np.eye(3)
    A = random_complex(rng, 3, 3)
    assert kernel_invariance_defect(B, A, rank_and_kernel(B)[1]) <= 1e-10


def test_kernel_invariance_violated():
    B = np.diag([1.0, 0.0])
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert kernel_invariance_defect(B, A, rank_and_kernel(B)[1]) > 0.5


def test_kernel_invariance_rectangular():
    # tall map whose kernel is the first two coordinates; the action keeps it
    B = np.zeros((6, 3), dtype=complex)
    B[0, 2] = 2.0
    B[2, 2] = 2.0
    A = np.diag([0.0, 1.0, 0.0]).astype(complex)
    assert kernel_invariance_defect(B, A, rank_and_kernel(B)[1]) <= 1e-10


@pytest.mark.parametrize("rows, cols, rank",
                         [(6, 3, 0), (6, 3, 1), (6, 3, 2), (4, 4, 2),
                          (2, 5, 1)])
def test_kernel_invariance_matches_pinv_formula(rows, cols, rank):
    # the old formula B A (I - pinv(B) B) is the oracle, on a general A
    # and on one that keeps the kernel
    rng = make_rng(100 * rows + 10 * cols + rank)
    B = random_complex(rng, rows, rank) @ random_complex(rng, rank, cols)
    _, K = rank_and_kernel(B)
    keeps = K @ random_complex(rng, cols - rank, cols - rank) @ K.conj().T \
        + random_complex(rng, cols, cols) @ (np.eye(cols) - K @ K.conj().T)
    G = np.linalg.pinv(B, rcond=DEFAULT_RANK_TOL)
    for A in (random_complex(rng, cols, cols), keeps):
        old = one_norm(B @ A @ (np.eye(cols) - G @ B))
        new = kernel_invariance_defect(B, A, K)
        scale = 1 + one_norm(B) * one_norm(A)
        assert abs(new - old) <= 1e-12 * scale
    assert new <= 1e-12 * scale


# ------------------------------------------------------------- validation

def test_as_matrix_rejects_nonfinite():
    with pytest.raises(NonFiniteValue):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])


def test_as_matrix_rejects_wrong_ndim():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
