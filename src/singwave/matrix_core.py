"""Dense complex matrix algebra.

Norms, generalized (Moore-Penrose) and Drazin inverses, solvability of
singular linear systems, core-nilpotent splittings, and functions of
diagonalizable matrices.  Everything works on plain numpy arrays and is
a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import (
    DefectiveMatrix,
    DomainError,
    EigendecompositionFailure,
    NonFiniteValue,
)

DEFAULT_RANK_TOL = 1e-10

# Relative width of the band around the real axis inside which eigenvalue
# imaginary parts are treated as round-off and removed before branch-sensitive
# scalar maps (square roots) are applied.
_REAL_SNAP = 1e-12

_DEFAULT_COND_LIMIT = 1e8


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a 2-D complex ndarray."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise ValueError(f"{name} must be two dimensional, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise NonFiniteValue(f"{name} contains non-finite entries")
    return A


def _require_square(A: np.ndarray, name: str = "matrix") -> int:
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    return A.shape[0]


def one_norm(M) -> float:
    """Maximum absolute column sum; for 1-D input, the sum of moduli."""
    A = np.asarray(M)
    if A.size == 0:
        return 0.0
    if A.ndim == 1:
        return float(np.abs(A).sum())
    return float(np.abs(A).sum(axis=0).max())


def rank_and_kernel(M, tol: float = DEFAULT_RANK_TOL):
    """Numerical rank and orthonormal kernel basis of M.

    Singular values above ``tol`` times the largest one count toward the
    rank.  Returns ``(rank, kernel)`` where ``kernel`` has shape
    ``(cols, cols - rank)`` and its columns span the numerical null space.
    """
    A = as_matrix(M)
    if A.size == 0:
        return 0, np.zeros((A.shape[1], A.shape[1]), dtype=complex)
    _, s, Vh = np.linalg.svd(A)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > tol * s[0]))
    kernel = Vh[rank:].conj().T
    return rank, kernel


def generalized_inverse(M, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with relative cutoff ``tol``.

    Satisfies M G M = M; coincides with the inverse for invertible M.
    """
    A = as_matrix(M)
    return np.linalg.pinv(A, rcond=tol)


@dataclass
class MitraSolution:
    """Outcome of a singular linear solve A x = b.

    When ``consistent``, the full solution family is
    ``particular + kernel_projector @ z`` over arbitrary z.
    """

    consistent: bool
    particular: np.ndarray
    kernel_projector: np.ndarray
    residual: float


def mitra_solve(A, b, tol: float = 1e-8,
                rank_tol: float = DEFAULT_RANK_TOL) -> MitraSolution:
    """Solvability test and general solution of A x = b.

    The system is consistent exactly when applying A after its generalized
    inverse reproduces b; inconsistency is reported, not raised.
    """
    A = as_matrix(A)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if b.shape[0] != A.shape[0]:
        raise ValueError(
            f"right-hand side has length {b.shape[0]}, expected {A.shape[0]}")
    G = np.linalg.pinv(A, rcond=rank_tol)
    x = G @ b
    residual = one_norm(A @ x - b)
    consistent = bool(residual <= tol * (1.0 + one_norm(b)))
    proj = np.eye(A.shape[1], dtype=complex) - G @ A
    return MitraSolution(consistent, x, proj, residual)


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
    A = as_matrix(M)
    _require_square(A)
    dec = core_nilpotent(A, tol)
    m = dec.p + dec.q
    B = np.zeros((m, m), dtype=complex)
    if dec.p:
        Cinv = scipy.linalg.solve_triangular(
            dec.C, np.eye(dec.p, dtype=complex))
        B[: dec.p, : dec.p] = Cinv
    D = dec.T @ B @ dec.T_inv
    return D, dec.index_k


def snap_real(values) -> np.ndarray:
    """Remove round-off imaginary parts from near-real values."""
    z = np.asarray(values, dtype=complex)
    mask = np.abs(z.imag) <= _REAL_SNAP * (1.0 + np.abs(z))
    return np.where(mask, z.real.astype(complex), z)


def matrix_function(M, f: Callable[[np.ndarray], np.ndarray],
                    cond_limit: float = _DEFAULT_COND_LIMIT) -> np.ndarray:
    """Evaluate f on a diagonalizable matrix through one eigensystem.

    ``f`` is a vectorised map of the eigenvalues (round-off imaginary
    parts removed) and may return leading stack axes, shape (..., m); the
    result has shape (..., m, m) and holds V diag(f) V^-1 for every stack
    entry.  Raises DefectiveMatrix when the eigenvector matrix is too ill
    conditioned to trust, and DomainError when f is undefined at some
    eigenvalue.
    """
    A = as_matrix(M)
    _require_square(A)
    try:
        w, V = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigendecompositionFailure(str(exc)) from exc
    condV = np.linalg.cond(V)
    if not np.isfinite(condV) or condV > cond_limit:
        raise DefectiveMatrix(
            f"eigenvector condition {condV:.3e} exceeds {cond_limit:.1e}; "
            "matrix treated as defective")
    fw = np.asarray(f(snap_real(w)), dtype=complex)
    finite = np.isfinite(fw)
    if not np.all(finite):
        bad = w[np.nonzero(~finite)[-1][0]]
        raise DomainError(f"map undefined at eigenvalue {bad}")
    return (V * fw[..., None, :]) @ np.linalg.inv(V)


def kernel_invariance_defect(B, A, rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """Norm of B A (I - B^g B); zero when Ker(B) is invariant under A."""
    Bm = as_matrix(B, "B")
    Am = as_matrix(A, "A")
    _require_square(Am, "A")
    if Bm.shape[1] != Am.shape[0]:
        raise ValueError(
            f"B has {Bm.shape[1]} columns but A is {Am.shape[0]} x {Am.shape[0]}")
    G = np.linalg.pinv(Bm, rcond=rank_tol)
    n = Bm.shape[1]
    return one_norm(Bm @ Am @ (np.eye(n, dtype=complex) - G @ Bm))
