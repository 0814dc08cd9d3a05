"""Discrete two-point eigenvalue problems on a uniform grid.

The second difference on the interior nodes 1..N-1 of a grid with N
subintervals, with Robin-type endpoint couplings folded into the corner
entries, gives a symmetric tridiagonal eigenproblem S v = lambda v.  This
module assembles it, solves it, and provides the expansion/synthesis maps
and the endpoint extension of a mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import DegenerateBoundary, EigendecompositionFailure
from .matrix_core import one_norm

_BOUNDARY_TOL = 1e-12
_SNAP_TOL = 1e-12
_CLUSTER_TOL = 1e-8


@dataclass
class SLProblem:
    """Grid eigenproblem data.

    N: number of subintervals (interior nodes are 1..N-1).
    alpha, beta: endpoint coupling scalars in the first-order boundary
        relations  u(0) + alpha*N*(u(1)-u(0)) = 0  and
        u(N) + beta*N*(u(N)-u(N-1)) = 0.
    """

    N: int
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if int(self.N) != self.N or self.N < 2:
            raise ValueError(f"N must be an integer >= 2, got {self.N}")
        self.N = int(self.N)


@dataclass
class EigenPair:
    """One eigenvalue with its interior eigenvector (length N-1)."""

    lam: float
    v: np.ndarray


def boundary_scalars(prob: SLProblem) -> tuple[float, float]:
    """Endpoint elimination factors (u(0) = a_eff*u(1), u(N) = b_eff*u(N-1)).

    Raises DegenerateBoundary when either elimination denominator vanishes.
    """
    aN = prob.alpha * prob.N
    bN = prob.beta * prob.N
    if abs(1.0 - aN) < _BOUNDARY_TOL:
        raise DegenerateBoundary(
            f"left coupling alpha*N = {aN} makes 1 - alpha*N vanish")
    if abs(1.0 + bN) < _BOUNDARY_TOL:
        raise DegenerateBoundary(
            f"right coupling beta*N = {bN} makes 1 + beta*N vanish")
    return -aN / (1.0 - aN), bN / (1.0 + bN)


def assemble_pencil(prob: SLProblem) -> np.ndarray:
    """Assemble the (N-1)x(N-1) matrix S.

    S is real symmetric tridiagonal with 2 on the diagonal and -1 off it,
    with the endpoint couplings folded into the corner entries.
    """
    n = prob.N - 1
    a_eff, b_eff = boundary_scalars(prob)
    S = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    S[0, 0] -= a_eff
    S[-1, -1] -= b_eff
    return S


def solve_psd(prob: SLProblem) -> List[EigenPair]:
    """All N-1 eigenpairs of S v = lambda v, ascending in lambda.

    Eigenvectors are orthonormal with the entry of largest magnitude made
    positive.  Eigenvalues indistinguishable from zero at working
    precision are flattened to exactly 0.0.
    """
    import scipy.linalg  # here, so that importing the package stays light

    S = assemble_pencil(prob)
    try:
        lams, vecs = scipy.linalg.eigh_tridiagonal(np.diag(S), np.diag(S, 1))
    except Exception as exc:
        raise EigendecompositionFailure(
            f"tridiagonal eigensolver failed: {exc}") from exc
    scale = one_norm(S)
    lams = np.where(np.abs(lams) <= _SNAP_TOL * max(1.0, scale), 0.0, lams)

    order = np.argsort(lams, kind="stable")
    lams = lams[order]
    vecs = _stabilize_clusters(lams, vecs[:, order], scale)

    cols = np.arange(lams.size)
    peaks = np.argmax(np.abs(vecs), axis=0)
    vecs = np.where(vecs[peaks, cols] < 0, -vecs, vecs)
    res = np.abs(S @ vecs - vecs * lams).sum(axis=0)
    bad = res > 1e-10 * max(1.0, scale) * np.maximum(
        1.0, np.abs(vecs).sum(axis=0))
    if bad.any():
        idx = int(np.argmax(bad))
        raise EigendecompositionFailure(
            f"eigenpair {idx + 1} residual {res[idx]:.3e} too large")
    # one contiguous row per mode
    return [EigenPair(float(lam), v) for lam, v in zip(lams, vecs.T.copy())]


def _stabilize_clusters(lams: np.ndarray, vecs: np.ndarray,
                        scale: float) -> np.ndarray:
    """Deterministic vectors within numerically repeated eigenvalues.

    Each cluster is re-orthonormalized and its columns ordered by the index
    of their largest-magnitude entry.
    """
    n = lams.size
    tol = _CLUSTER_TOL * max(1.0, scale)
    out = vecs.copy()
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and abs(lams[stop] - lams[stop - 1]) <= tol:
            stop += 1
        if stop - start > 1:
            block = out[:, start:stop]
            Q, _ = np.linalg.qr(block)
            peaks = [int(np.argmax(np.abs(Q[:, j]))) for j in range(Q.shape[1])]
            Q = Q[:, np.argsort(peaks, kind="stable")]
            out[:, start:stop] = Q
        start = stop
    return out


def orthogonality_defect(pairs: Sequence[EigenPair],
                         prob: SLProblem) -> float:
    """Largest normalized inner product between distinct modes.

    ``prob`` is not read: the modes of the unweighted problem are
    orthogonal in the plain inner product.
    """
    V = np.stack([pair.v for pair in pairs], axis=1)
    norms = np.linalg.norm(V, axis=0)
    denom = np.outer(norms, norms)
    cosines = np.divide(np.abs(V.T @ V), denom, out=np.zeros_like(denom),
                        where=denom > 0)
    return float(np.triu(cosines, 1).max(initial=0.0))


def expand(u, pairs: Sequence[EigenPair], prob: SLProblem) -> np.ndarray:
    """Coefficients of a grid function in the eigenbasis.

    ``u`` has shape (N-1,) for scalar grids or (N-1, m) for vector-valued
    ones; coefficient l is the projection onto mode l divided by that
    mode's energy.  Returns shape (N-1,) or (N-1, m).
    """
    U = np.asarray(u, dtype=complex)
    if U.shape[0] != prob.N - 1:
        raise ValueError(
            f"grid function has {U.shape[0]} rows, expected {prob.N - 1}")
    # one product per mode: a single V @ U would sum in another order and
    # change the last bits of every grid value
    coeffs = []
    for pair in pairs:
        energy = float(np.sum(pair.v * pair.v))
        if U.ndim == 1:
            coeffs.append(np.sum(pair.v * U) / energy)
        else:
            coeffs.append(pair.v @ U / energy)
    return np.asarray(coeffs)


def synthesize(coeffs, pairs: Sequence[EigenPair]) -> np.ndarray:
    """Sum of modes with the given coefficients (inverse of expand)."""
    C = np.asarray(coeffs, dtype=complex)
    if C.shape[0] != len(pairs):
        raise ValueError(
            f"{C.shape[0]} coefficients for {len(pairs)} modes")
    V = np.stack([pair.v for pair in pairs], axis=1)  # (N-1, n_modes)
    return V @ C


def extend_eigenfunction(pairs: Sequence[EigenPair],
                         prob: SLProblem) -> np.ndarray:
    """Values of a stack of modes on the full grid 0..N via the endpoint
    eliminations; shape (len(pairs), N+1), one row per mode."""
    a_eff, b_eff = boundary_scalars(prob)
    V = np.array([pair.v for pair in pairs])
    return np.hstack([a_eff * V[:, :1], V, b_eff * V[:, -1:]])

