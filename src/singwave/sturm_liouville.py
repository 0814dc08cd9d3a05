"""Discrete two-point eigenvalue problems on a uniform grid.

The second difference on the interior nodes 1..N-1 of a grid with N
subintervals, with Robin-type endpoint couplings folded into the corner
entries, gives a symmetric tridiagonal eigenproblem S v = lambda v.  This
module assembles it, solves it, and expands grid functions in its
eigenbasis; the vectors are orthonormal, so V^T c sums the modes back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBoundary, EigendecompositionFailure, ShapeError
from .matrix_core import _finite_number, _integer_at_least, one_norm

_BOUNDARY_TOL = 1e-12
_SNAP_TOL = 1e-12


@dataclass
class SLProblem:
    """Grid eigenproblem data.

    N: number of subintervals (interior nodes are 1..N-1).
    alpha, beta: endpoint coupling scalars in the first-order boundary
        relations  u(0) + alpha*N*(u(1)-u(0)) = 0  and
        u(N) + beta*N*(u(N)-u(N-1)) = 0.

    Raises ParseError unless N is an integer >= 2 (the rule of
    GridParams) and alpha and beta are finite (the rule of ProblemSpec).
    """

    N: int
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        self.N = _integer_at_least(self.N, "N", 2)
        self.alpha = _finite_number(self.alpha, "alpha")
        self.beta = _finite_number(self.beta, "beta")


def boundary_scalars(prob: SLProblem) -> tuple[float, float]:
    """Endpoint elimination factors (u(0) = a_eff*u(1), u(N) = b_eff*u(N-1)).

    They fold the endpoints into the eigenproblem's corner entries, and
    the solver takes the solution's and the data's endpoint rows from
    them.  Raises DegenerateBoundary when either elimination denominator
    vanishes.
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


def solve_psd(prob: SLProblem) -> np.recarray:
    """All N-1 modes of S v = lambda v as one record, ascending in lambda.

    Field ``lam`` has shape (N-1,) and field ``v`` shape (N-1, N-1), one
    row per mode; entry l is the record of mode l+1 with its own ``lam``
    and ``v``.  The pairs are numpy's ``eigh`` pairs in its ascending
    order, each vector's sign set by one rule: its entry of largest
    magnitude is made positive.  S is unreduced tridiagonal, so its
    eigenvalues are simple and eigh pairs each with its own orthonormal
    vector.  Eigenvalues indistinguishable from zero at working precision
    are flattened to exactly 0.0.  Raises EigendecompositionFailure when
    a pair's residual is not small relative to ||S||_1.
    """
    S = assemble_pencil(prob)
    try:
        lams, vecs = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionFailure(
            f"symmetric eigensolver failed: {exc}") from exc
    scale = one_norm(S)
    # snapping keeps eigh's ascending order
    lams = np.where(np.abs(lams) <= _SNAP_TOL * max(1.0, scale), 0.0, lams)
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
    return np.rec.fromarrays([lams, vecs.T], dtype=[
        ("lam", float), ("v", float, (lams.size,))])


def expand(u, modes: np.recarray) -> np.ndarray:
    """Coefficients of a grid function in the eigenbasis.

    ``u`` has shape (N-1,) for scalar grids or (N-1, m) for vector-valued
    ones; coefficient l is the projection onto mode l divided by that
    mode's energy, all modes in one product.  Returns shape (N-1,) or
    (N-1, m).
    """
    U = np.asarray(u, dtype=complex)
    if U.shape[0] != len(modes):
        raise ShapeError(
            f"grid function has {U.shape[0]} rows, expected {len(modes)}")
    energy = np.sum(modes.v * modes.v, axis=1)
    return (modes.v @ U) / energy.reshape((-1,) + (1,) * (U.ndim - 1))

