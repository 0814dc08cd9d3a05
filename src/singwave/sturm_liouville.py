"""Discrete two-point eigenvalue problems on a uniform grid.

A second-order difference operator on the interior nodes 1..N-1 of a grid
with N subintervals, with Robin-type endpoint couplings folded into the
corner entries, gives a generalized symmetric eigenproblem
S v = lambda R v.  This module assembles it, solves it, and provides the
weighted expansion/synthesis maps and the endpoint extension of a mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np
import scipy.linalg

from .errors import DegenerateBoundary, EigendecompositionFailure
from .matrix_core import one_norm

_BOUNDARY_TOL = 1e-12
_SNAP_TOL = 1e-12
_CLUSTER_TOL = 1e-8


def _const(value: float) -> Callable[[int], float]:
    return lambda i: value


@dataclass
class SLProblem:
    """Grid eigenproblem data.

    N: number of subintervals (interior nodes are 1..N-1).
    alpha, beta: endpoint coupling scalars in the first-order boundary
        relations  u(0) + alpha*N*(u(1)-u(0)) = 0  and
        u(N) + beta*N*(u(N)-u(N-1)) = 0.
    p, q, r: coefficient samples by node index; defaults are the constant
        problem p=1, q=0, r=1.
    """

    N: int
    alpha: float = 0.0
    beta: float = 0.0
    p: Callable[[int], float] = field(default_factory=lambda: _const(1.0))
    q: Callable[[int], float] = field(default_factory=lambda: _const(0.0))
    r: Callable[[int], float] = field(default_factory=lambda: _const(1.0))

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


def assemble_pencil(prob: SLProblem) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the (N-1)x(N-1) pencil matrices (S, R).

    S is real symmetric tridiagonal with interior diagonal
    p(i) + p(i-1) - q(i), off-diagonals -p(i), and endpoint couplings
    folded into the corner entries; R holds the weights r(i) on its
    diagonal.
    """
    n = prob.N - 1
    a_eff, b_eff = boundary_scalars(prob)
    pv = np.array([float(prob.p(i)) for i in range(prob.N)])
    qv = np.array([float(prob.q(i)) for i in range(1, prob.N)])
    rv = np.array([float(prob.r(i)) for i in range(1, prob.N)])
    if np.any(rv <= 0.0):
        raise ValueError("weights r(i) must be positive on interior nodes")
    diag = pv[1:] + pv[:-1] - qv
    diag[0] -= a_eff * pv[0]
    diag[-1] -= b_eff * pv[-1]
    S = np.diag(diag).astype(float)
    if n > 1:
        off = -pv[1:-1]
        S += np.diag(off, 1) + np.diag(off, -1)
    return S, np.diag(rv)


def _tridiagonal_bands(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = np.diag(S).copy()
    e = np.diag(S, 1).copy() if S.shape[0] > 1 else np.zeros(0)
    return d, e


def solve_psd(prob: SLProblem) -> List[EigenPair]:
    """All N-1 eigenpairs of S v = lambda R v, ascending in lambda.

    Eigenvectors are normalized against the weights
    (sum_i r(i) v_mu(i) v_nu(i) = delta_mu_nu) with the entry of largest
    magnitude made positive.  Eigenvalues indistinguishable from zero at
    working precision are flattened to exactly 0.0.
    """
    S, R = assemble_pencil(prob)
    n = S.shape[0]
    rv = np.diag(R)
    rsqrt = np.sqrt(rv)
    # similarity to a plain symmetric tridiagonal problem keeps the spectrum
    # real and the vectors orthogonal for any positive weights
    W = S / np.outer(rsqrt, rsqrt)
    d, e = _tridiagonal_bands(W)
    if n == 1:
        lams = np.array([d[0]])
        wvecs = np.ones((1, 1))
    else:
        try:
            lams, wvecs = scipy.linalg.eigh_tridiagonal(d, e)
        except Exception as exc:
            raise EigendecompositionFailure(
                f"tridiagonal eigensolver failed: {exc}") from exc
    scale = one_norm(S)
    lams = np.where(np.abs(lams) <= _SNAP_TOL * max(1.0, scale), 0.0, lams)

    order = np.argsort(lams, kind="stable")
    lams = lams[order]
    wvecs = wvecs[:, order]
    wvecs = _stabilize_clusters(lams, wvecs, scale)

    pairs: List[EigenPair] = []
    for idx in range(n):
        w = wvecs[:, idx]
        peak = int(np.argmax(np.abs(w)))
        if w[peak] < 0:
            w = -w
        v = w / rsqrt
        res = one_norm(S @ v - lams[idx] * rv * v)
        if res > 1e-10 * max(1.0, scale) * max(1.0, one_norm(v)):
            raise EigendecompositionFailure(
                f"eigenpair {idx + 1} residual {res:.3e} too large")
        pairs.append(EigenPair(float(lams[idx]), v))
    return pairs


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


def _weights(prob: SLProblem) -> np.ndarray:
    return np.array([float(prob.r(i)) for i in range(1, prob.N)])


def orthogonality_defect(pairs: Sequence[EigenPair],
                         prob: SLProblem) -> float:
    """Largest normalized weighted inner product between distinct modes."""
    rv = _weights(prob)
    worst = 0.0
    for mu in range(len(pairs)):
        for nu in range(mu + 1, len(pairs)):
            vm, vn = pairs[mu].v, pairs[nu].v
            ip = float(np.sum(rv * vm * vn))
            denom = np.linalg.norm(vm) * np.linalg.norm(vn)
            if denom > 0:
                worst = max(worst, abs(ip) / denom)
    return worst


def expand(u, pairs: Sequence[EigenPair], prob: SLProblem) -> np.ndarray:
    """Coefficients of a grid function in the eigenbasis.

    ``u`` has shape (N-1,) for scalar grids or (N-1, m) for vector-valued
    ones; coefficient l is the weighted projection onto mode l divided by
    that mode's weighted energy.  Returns shape (N-1,) or (N-1, m).
    """
    rv = _weights(prob)
    U = np.asarray(u, dtype=complex)
    if U.shape[0] != prob.N - 1:
        raise ValueError(
            f"grid function has {U.shape[0]} rows, expected {prob.N - 1}")
    coeffs = []
    for pair in pairs:
        energy = float(np.sum(rv * pair.v * pair.v))
        weighted = rv * pair.v
        if U.ndim == 1:
            coeffs.append(np.sum(weighted * U) / energy)
        else:
            coeffs.append(weighted @ U / energy)
    return np.asarray(coeffs)


def synthesize(coeffs, pairs: Sequence[EigenPair]) -> np.ndarray:
    """Sum of modes with the given coefficients (inverse of expand)."""
    C = np.asarray(coeffs, dtype=complex)
    if C.shape[0] != len(pairs):
        raise ValueError(
            f"{C.shape[0]} coefficients for {len(pairs)} modes")
    V = np.stack([pair.v for pair in pairs], axis=1)  # (N-1, n_modes)
    return V @ C


def extend_eigenfunction(pair: EigenPair, prob: SLProblem) -> np.ndarray:
    """Mode values on the full grid 0..N via the endpoint eliminations."""
    a_eff, b_eff = boundary_scalars(prob)
    full = np.empty(prob.N + 1)
    full[1:-1] = pair.v
    full[0] = a_eff * pair.v[0]
    full[-1] = b_eff * pair.v[-1]
    return full

