"""Dense complex matrix algebra.

Norms, generalized (Moore-Penrose) and Drazin inverses, solvability of
singular linear systems, core-nilpotent splittings, and principal square
roots of stacks of upper-triangular matrices (the Schur method, which
needs no eigenvector basis).  Everything works on plain numpy arrays and
is a pure function of its inputs.  Numerical rank has one definition,
in _svd_rank: the count of singular values above a relative tolerance
times the largest of their matrix.  Every minimum-norm solve, the
Moore-Penrose inverse included, inverts just those values (min_norm_solve).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (EigendecompositionFailure, NoSquareRoot, NonFiniteValue,
                     ShapeError)

DEFAULT_RANK_TOL = 1e-10

# Relative width of the band around the real axis inside which eigenvalue
# imaginary parts are treated as round-off and removed before branch-sensitive
# scalar maps (square roots) are applied.
_REAL_SNAP = 1e-12

# Relative size below which a square-root recurrence numerator counts as zero.
_ROOT_TOL = 1e-12


def as_matrix(M, name: str = "matrix", dtype=complex) -> np.ndarray:
    """Validate and convert to a 2-D ndarray, complex by default."""
    A = np.asarray(M, dtype=dtype)
    if A.ndim != 2:
        raise ShapeError(f"{name} must be two dimensional, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise NonFiniteValue(f"{name} contains non-finite entries")
    return A


def _require_square(A: np.ndarray, name: str = "matrix") -> int:
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {A.shape}")
    return A.shape[0]


def one_norm(M) -> float:
    """Maximum absolute column sum; for 1-D input, the sum of moduli."""
    A = np.asarray(M)
    if A.size == 0:
        return 0.0
    if A.ndim == 1:
        return float(np.abs(A).sum())
    return float(np.abs(A).sum(axis=0).max())


def _svd_rank(A: np.ndarray, tol: float):
    """SVD of a matrix or a stack of them (..., rows, cols) and the
    numerical rank of each: the count of singular values above ``tol``
    times the largest of that matrix.  Vh is always square (cols x cols),
    so its trailing rows span the whole null space, also for wide A."""
    U, s, Vh = np.linalg.svd(A, full_matrices=A.shape[-2] < A.shape[-1])
    return U, s, Vh, np.count_nonzero(s > tol * s[..., :1], axis=-1)


def _solve_kept(U, s, Vh, rank, B) -> np.ndarray:
    """Vh^H ((U^H B) / s) over the first ``rank`` singular values."""
    n = s.shape[-1]
    UhB = U[..., :n].conj().swapaxes(-1, -2) @ B
    x = np.divide(UhB, s[..., None], out=np.zeros_like(UhB),
                  where=(np.arange(n) < rank[..., None])[..., None])
    return Vh[..., :n, :].conj().swapaxes(-1, -2) @ x


def min_norm_solve(A, B, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Minimum-norm least-squares solution of A X = B for a matrix A or a
    stack (..., rows, cols) and B (..., rows, k): the Moore-Penrose
    inverse with relative cutoff ``tol``, each matrix cut on its own."""
    return _solve_kept(*_svd_rank(np.asarray(A), tol), np.asarray(B))


def rank_and_kernel(M, tol: float = DEFAULT_RANK_TOL):
    """Numerical rank and orthonormal kernel basis of M.

    Singular values above ``tol`` times the largest one count toward the
    rank.  Returns ``(rank, kernel)`` where ``kernel`` has shape
    ``(cols, cols - rank)`` and its columns span the numerical null space.
    """
    _, _, Vh, rank = _svd_rank(as_matrix(M), tol)
    return int(rank), Vh[rank:].conj().T


def generalized_inverse(M, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with relative cutoff ``tol``.

    Satisfies M G M = M; coincides with the inverse for invertible M.
    """
    A = as_matrix(M)
    return min_norm_solve(A, np.eye(A.shape[0], dtype=complex), tol)


@dataclass
class MitraSolution:
    """Outcome of a singular linear solve A x = b.

    ``particular`` is the minimum-norm solution and ``kernel`` an
    orthonormal basis (cols x q) of A's null space.  When ``consistent``,
    the full solution family is ``particular + kernel @ z`` over
    arbitrary z.
    """

    consistent: bool
    particular: np.ndarray
    kernel: np.ndarray
    residual: float


def _as_complex(pairs: np.ndarray) -> np.ndarray:
    """Complex vector from (real, imaginary) column pairs or from one
    complex column."""
    return np.ascontiguousarray(pairs).view(complex).reshape(-1)


def mitra_solve(A, b, tol: float = 1e-8,
                rank_tol: float = DEFAULT_RANK_TOL) -> MitraSolution:
    """Solvability test and general solution of A x = b.

    One SVD of A gives the minimum-norm solution (singular values below
    ``rank_tol`` relative are cut, as in the pseudoinverse) and the kernel
    basis.  The system is consistent exactly when applying A to that
    solution reproduces b; inconsistency is reported, not raised.
    """
    A = np.asarray(A)
    b = np.ascontiguousarray(b, dtype=complex).reshape(-1)
    if np.iscomplexobj(A) and A.imag.any():
        A = as_matrix(A)
        rhs = b[:, None]
    else:
        # a real SVD of a real matrix is a valid complex one; the complex
        # right-hand side goes through as (real, imaginary) column pairs
        A = as_matrix(A.real, dtype=float)
        rhs = b.view(float).reshape(-1, 2)
    if b.shape[0] != A.shape[0]:
        raise ShapeError(
            f"right-hand side has length {b.shape[0]}, expected {A.shape[0]}")
    U, s, Vh, rank = _svd_rank(A, rank_tol)
    x = _solve_kept(U, s, Vh, rank, rhs)
    residual = one_norm(_as_complex(A @ x - rhs))
    consistent = bool(residual <= tol * (1.0 + one_norm(b)))
    return MitraSolution(consistent, _as_complex(x), Vh[rank:].conj().T,
                         residual)


@dataclass
class CoreNilpotentDecomposition:
    """Similarity split M = T diag(C, Nblock) T^-1.

    C is invertible (p x p), Nblock strictly upper triangular (q x q),
    and index_k is the nilpotency index of Nblock (0 when q == 0).
    """

    T: np.ndarray
    C: np.ndarray
    Nblock: np.ndarray
    index_k: int
    p: int
    q: int
    T_inv: np.ndarray

    def core_inverse(self) -> np.ndarray:
        """C^-1, upper triangular like C."""
        import scipy.linalg  # here, so that importing the package stays light

        return scipy.linalg.solve_triangular(
            self.C, np.eye(self.p, dtype=complex))

    def reconstruct(self) -> np.ndarray:
        m = self.p + self.q
        B = np.zeros((m, m), dtype=complex)
        if self.p:
            B[: self.p, : self.p] = self.C
        if self.q:
            B[self.p:, self.p:] = self.Nblock
        return self.T @ B @ self.T_inv


def _nilpotency_index(N: np.ndarray) -> int:
    q = N.shape[0]
    if q == 0:
        return 0
    power = N.copy()
    k = 1
    # strictly upper triangular, so the loop ends after at most q steps
    while one_norm(power) != 0.0:
        power = power @ N
        k += 1
    return k


def core_nilpotent(M, tol: float = DEFAULT_RANK_TOL) -> CoreNilpotentDecomposition:
    """Split a square matrix into an invertible core and a nilpotent part.

    Eigenvalues with modulus at most ``tol * one_norm(M)`` are clustered
    into the nilpotent block.  Computed by a sorted complex Schur form
    followed by a Sylvester-equation block decoupling; no Jordan form is
    attempted.
    """
    A = as_matrix(M)
    m = _require_square(A)
    if m == 0:
        eye0 = np.zeros((0, 0), dtype=complex)
        return CoreNilpotentDecomposition(eye0, eye0, eye0, 0, 0, 0, eye0)
    scale = one_norm(A)
    if scale == 0.0:
        eye = np.eye(m, dtype=complex)
        zero = np.zeros((m, m), dtype=complex)
        return CoreNilpotentDecomposition(
            eye, np.zeros((0, 0), dtype=complex), zero, 1, 0, m, eye)
    thresh = tol * scale
    import scipy.linalg  # here, so that importing the package stays light

    try:
        Tschur, Z, sdim = scipy.linalg.schur(
            A, output="complex", sort=lambda z: abs(z) > thresh)
    except Exception as exc:  # pragma: no cover - LAPACK convergence failure
        raise EigendecompositionFailure(
            f"Schur decomposition failed: {exc}") from exc
    p = int(sdim)
    q = m - p
    C = Tschur[:p, :p].copy()
    Nblock = Tschur[p:, p:].copy()
    if q:
        # the clustered eigenvalues are numerical zeros; dropping them makes
        # the block exactly nilpotent
        np.fill_diagonal(Nblock, 0.0)
    top = np.eye(m, dtype=complex)
    if p and q:
        B12 = Tschur[:p, p:]
        try:
            Y = scipy.linalg.solve_sylvester(C, -Nblock, -B12)
        except Exception as exc:
            raise EigendecompositionFailure(
                f"block decoupling failed: {exc}") from exc
        top[:p, p:] = Y
    T = Z @ top
    top_inv = np.eye(m, dtype=complex)
    if p and q:
        top_inv[:p, p:] = -top[:p, p:]
    T_inv = top_inv @ Z.conj().T
    dec = CoreNilpotentDecomposition(T, C, Nblock, _nilpotency_index(Nblock),
                                     p, q, T_inv)
    err = one_norm(dec.reconstruct() - A)
    if err > max(tol * (1.0 + scale), 64 * np.finfo(float).eps * scale):
        raise EigendecompositionFailure(
            f"core-nilpotent reconstruction error {err:.3e} exceeds tolerance")
    return dec


def drazin_inverse(M, tol: float = DEFAULT_RANK_TOL):
    """Drazin inverse and index of a square matrix.

    Returns ``(D, index)`` with D built from the core-nilpotent split by
    inverting the core block and annihilating the nilpotent one.
    """
    dec = core_nilpotent(M, tol)
    D = dec.T[:, : dec.p] @ dec.core_inverse() @ dec.T_inv[: dec.p]
    return D, dec.index_k


def snap_real(values) -> np.ndarray:
    """Remove round-off imaginary parts from near-real values."""
    z = np.asarray(values, dtype=complex)
    mask = np.abs(z.imag) <= _REAL_SNAP * (1.0 + np.abs(z))
    return np.where(mask, z.real.astype(complex), z)


def matrix_function(T) -> np.ndarray:
    """Principal square root of a stack of upper-triangular matrices.

    T has shape (..., p, p); only its upper triangle is read.  The
    diagonal of the root is sqrt(snap_real(t_ii)).  The entries above it
    follow the Bjorck-Hammarling recurrence, one superdiagonal at a time
    for the whole stack:

        u_ij = (t_ij - sum_{i<k<j} u_ik u_kj) / (u_ii + u_jj).

    Two principal roots sum to zero only when both are zero.  There a
    numerator within _ROOT_TOL times (1 + the entry's 1-norm) of zero
    gives u_ij = 0; a larger one means that no square root exists, and
    NoSquareRoot names the stack entry and the row i.
    """
    A = np.asarray(T, dtype=complex)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
        raise ShapeError(
            f"expected a stack of square matrices, got shape {A.shape}")
    p = A.shape[-1]
    idx = np.arange(p)
    U = np.zeros_like(A)
    U[..., idx, idx] = np.sqrt(snap_real(A[..., idx, idx]))
    norms = np.abs(A).sum(axis=-2).max(axis=-1, initial=0.0)
    limit = _ROOT_TOL * (1.0 + norms)
    for k in range(1, p):
        i, j = idx[:-k], idx[k:]
        # entries at offset k are still zero, so the full row-by-column
        # product sums exactly the filled terms i < t < j
        num = A[..., i, j] - np.einsum("...it,...ti->...i",
                                       U[..., i, :], U[..., :, j])
        den = U[..., i, i] + U[..., j, j]
        zero = den == 0.0
        bad = zero & (np.abs(num) > limit[..., None])
        if bad.any():
            *entry, row = (int(x) for x in np.argwhere(bad)[0])
            raise NoSquareRoot(f"stack entry {entry}, rows {row} and "
                               f"{row + k}: no square root exists",
                               tuple(entry), row)
        U[..., i, j] = np.where(zero, 0.0, num / np.where(zero, 1.0, den))
    return U


def kernel_invariance_defect(B, A, kernel) -> float:
    """Norm of B A (I - B^g B) = B A K K^H, with K the orthonormal kernel
    basis of B (rank_and_kernel); zero when Ker(B) is invariant under A."""
    Bm, Am, K = as_matrix(B, "B"), as_matrix(A, "A"), as_matrix(kernel, "K")
    _require_square(Am, "A")
    if not Bm.shape[1] == Am.shape[0] == K.shape[0]:
        raise ShapeError(f"B {Bm.shape}, A {Am.shape} and K {K.shape} "
                         "do not conform")
    return one_norm((Bm @ Am @ K) @ K.conj().T)
