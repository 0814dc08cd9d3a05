"""Dense complex matrix algebra on numpy alone.

Norms, minimum-norm solves and kernel bases, core-nilpotent splittings
(whose triangular core the pencil inverts), and principal square roots
of stacks of upper-triangular matrices (the Schur method, which needs no
eigenvector basis).  Everything works on plain numpy arrays and is a pure function
of its inputs.  Numerical rank comes from an SVD.  _svd_rank counts the
singular values above a relative tolerance times the largest of their
matrix, and min_norm_solve inverts just those: min_norm_solve(A, B)
applies the Moore-Penrose inverse of A to B.  The kernel chain of
core_nilpotent cuts each of its blocks at one fixed threshold, the
tolerance times the 1-norm of the whole matrix.  The checks that every
validator of a problem's values shares live here too: as_matrix for a
table of numbers, is_number, _finite_number and _integer_at_least for a
number; and peak_norm, the largest nodal 1-norm of a table.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (EigendecompositionFailure, NoSquareRoot, NonFiniteValue,
                     ParseError, ShapeError)

DEFAULT_RANK_TOL = 1e-10

# Relative width of the band around the real axis inside which eigenvalue
# imaginary parts are treated as round-off and removed before branch-sensitive
# scalar maps (square roots) are applied.
_REAL_SNAP = 1e-12

# Relative size below which a square-root recurrence numerator counts as zero.
_ROOT_TOL = 1e-12


def is_number(value, kind=(int, float)) -> bool:
    """Whether ``value`` is a number of ``kind``; a bool is not, though
    Python counts it as an int."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _finite_number(value, name: str) -> float:
    """``value`` as a finite float; raises ParseError for anything else."""
    try:
        if is_number(value, numbers.Real) and math.isfinite(float(value)):
            return float(value)
    except OverflowError:  # an int too large for a float
        pass
    raise ParseError(f'"{name}" must be a finite float, got {value!r}')


def _integer_at_least(value, name: str, low: int) -> int:
    """``value`` as an int >= ``low``; a bool or a float such as 4.0 is
    not one.  Raises ParseError otherwise."""
    if not is_number(value, numbers.Integral) or value < low:
        raise ParseError(f'"{name}" must be an integer >= {low}, '
                         f'got {value!r}')
    return int(value)


def as_matrix(value, name: str = "matrix", shape=None) -> np.ndarray:
    """``value``, a table of numbers, as a complex matrix: the one check
    of every table, in this order.  ShapeError for rows of unequal
    length, ParseError for entries that are not numbers (a bool is not
    one, also among numbers), ShapeError unless the table is two
    dimensional and, when ``shape`` is given, of that shape,
    NonFiniteValue for a NaN or an infinite entry."""
    want = "be two dimensional" if shape is None else f"have shape {shape}"
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # rows of unequal length
        raise ShapeError(f'"{name}" must {want}, got uneven rows') from exc
    if arr.dtype.kind not in "iufc":
        raise ParseError(f'"{name}" entries must be numbers, got {arr.dtype}')
    # numpy casts a bool among numbers to a number; the cells' types show it
    if not (isinstance(value, np.ndarray) or {bool, np.bool_}.isdisjoint(
            map(type, np.array(value, dtype=object).flat))):
        raise ParseError(f'"{name}" entries must be numbers, got bool')
    if arr.ndim != 2 or shape not in (None, arr.shape):
        raise ShapeError(f'"{name}" must {want}, got {arr.shape}')
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f'"{name}" contains non-finite entries')
    return arr.astype(complex, copy=False)


def _square(value, name: str = "matrix") -> np.ndarray:
    """as_matrix of a square table."""
    A = as_matrix(value, name)
    return as_matrix(A, name, (len(A), len(A)))


def peak_norm(rows) -> float:
    """Largest 1-norm over the last axis of ``rows``; 0.0 when empty.

    Floating-point addition is not associative, so the order of the
    additions fixes the bits of a norm (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2002, ch. 4).  numpy's ``sum`` adds fewer
    than 8 entries left to right and 8 or more pairwise; rows of fewer
    than 8 entries are summed here a column at a time, left to right
    too, which gives ``sum``'s bits without its slow reduction over a
    short last axis.
    """
    A = np.asarray(rows)
    if not A.size:
        return 0.0
    if A.shape[-1] >= 8:
        return float(np.abs(A).sum(axis=-1).max())
    total = np.abs(A[..., 0])
    for c in range(1, A.shape[-1]):
        total += np.abs(A[..., c])
    return float(total.max())


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


@dataclass
class CoreNilpotentDecomposition:
    """Similarity split M = T diag(C, Nblock) T^-1.

    C is invertible and upper triangular (p x p), Nblock strictly upper
    triangular (q x q), and index_k is the nilpotency index of Nblock,
    the length of the kernel chain (0 when q == 0).  The first p columns
    of T are an orthonormal basis of the core subspace.
    """

    T: np.ndarray
    C: np.ndarray
    Nblock: np.ndarray
    index_k: int
    p: int
    q: int
    T_inv: np.ndarray

    def core_inverse(self) -> np.ndarray:
        """C^-1, upper triangular like C: LU with partial pivoting makes no
        row exchange on a triangular matrix."""
        return np.linalg.solve(self.C, np.eye(self.p, dtype=complex))

    def reconstruct(self) -> np.ndarray:
        m = self.p + self.q
        B = np.zeros((m, m), dtype=complex)
        B[: self.p, : self.p] = self.C
        B[self.p:, self.p:] = self.Nblock
        return self.T @ B @ self.T_inv


def _rotate(H: np.ndarray, Q: np.ndarray, V: np.ndarray, lo: int,
            hi: int) -> None:
    """H <- W^H H W and Q <- Q W in place, where the unitary W is V on the
    index range lo:hi and the identity elsewhere."""
    H[:, lo:hi] = H[:, lo:hi] @ V
    H[lo:hi] = V.conj().T @ H[lo:hi]
    Q[:, lo:hi] = Q[:, lo:hi] @ V


def core_nilpotent(M, tol: float = DEFAULT_RANK_TOL) -> CoreNilpotentDecomposition:
    """Split a square matrix into an invertible core and a nilpotent part.

    Rank, not eigenvalue size, decides the split (the staircase of Golub
    and Wilkinson, 1976, and Van Dooren, 1979), in three steps:

    1. The kernel chain of M^H.  Singular values of the trailing block at
       most ``tol * one_norm(M)`` span its kernel, which the unitary from
       the same SVD moves to the front; this repeats until the trailing
       block has no kernel.  The number of steps is the nilpotency index.
       The trailing columns then span the core subspace, which M leaves
       invariant, and the leading ones its orthogonal complement.
    2. The invertible core goes to upper-triangular (Schur) form one
       eigenvalue mu at a time: the smallest right singular vector of the
       trailing block minus mu I, completed to a unitary by the same SVD.
    3. The two blocks decouple by a column recurrence, as the nilpotent
       block is strictly upper triangular.

    EigendecompositionFailure when T diag(C, Nblock) T^-1 misses M.
    """
    A = _square(M)
    m = len(A)
    scale = one_norm(A)
    thresh = tol * scale
    # 1. H = Q^H A^H Q: its leading q columns hold zero diagonal blocks
    H, Q = A.conj().T, np.eye(m, dtype=complex)
    q = index = 0
    while q < m:
        _, s, Vh = np.linalg.svd(H[q:, q:])
        kernel = np.count_nonzero(s <= thresh)
        if not kernel:
            break
        _rotate(H, Q, Vh[::-1].conj().T, q, m)
        H[q:, q:q + kernel] = 0.0
        q += kernel
        index += 1
    p = m - q
    # in the order [core, complement reversed] Q^H A Q = H^H is block upper
    # triangular with a strictly upper-triangular nilpotent block
    order = np.concatenate([np.arange(q, m), np.arange(q - 1, -1, -1)])
    Z = Q[:, order]
    G = H.conj().T[np.ix_(order, order)]
    # 2. Schur form of the core block G[:p, :p]
    for j in range(p - 1):
        block = G[j:p, j:p]
        mu = np.linalg.eigvals(block)[0]
        _, _, Vh = np.linalg.svd(block - mu * np.eye(p - j))
        _rotate(G, Z, Vh[::-1].conj().T, j, p)
        G[j + 1:p, j] = 0.0
    C, B12, Nblock = G[:p, :p], G[:p, p:], G[p:, p:]
    # 3. C Y - Y Nblock = -B12, column by column
    Y = np.zeros((p, q), dtype=complex)
    for j in range(q):
        Y[:, j] = np.linalg.solve(C, Y[:, :j] @ Nblock[:j, j] - B12[:, j])
    top, top_inv = np.eye(m, dtype=complex), np.eye(m, dtype=complex)
    top[:p, p:], top_inv[:p, p:] = Y, -Y
    dec = CoreNilpotentDecomposition(Z @ top, C, Nblock, index, p, q,
                                     top_inv @ Z.conj().T)
    err = one_norm(dec.reconstruct() - A)
    if err > max(tol * (1.0 + scale), 64 * np.finfo(float).eps * scale):
        raise EigendecompositionFailure(
            f"core-nilpotent reconstruction error {err:.3e} exceeds tolerance")
    return dec


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
    Bm, Am, K = as_matrix(B, "B"), _square(A, "A"), as_matrix(kernel, "K")
    if not Bm.shape[1] == Am.shape[0] == K.shape[0]:
        raise ShapeError(f"B {Bm.shape}, A {Am.shape} and K {K.shape} "
                         "do not conform")
    return one_norm((Bm @ Am @ K) @ K.conj().T)
