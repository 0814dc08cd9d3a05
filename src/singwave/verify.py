"""Independent residual oracle for candidate grid solutions.

Evaluates the raw finite-difference equations — interior stencil,
endpoint relations, initial data — on any grid U, sharing no code with
the spectral construction: only the dense matrix utilities are used.  A
brute-force reference on small instances stacks every discrete equation
into one dense system and takes its minimum-norm solution and kernel
basis from one SVD, in real arithmetic when the coefficients are real.

The ``spec`` arguments are duck-typed problem descriptions carrying the
attributes m, E, A, A1, A2, B1, B2, F, Gv and grid (with N, k, M, r).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentSystem, SizeCapExceeded
from .matrix_core import mitra_solve

SIZE_CAP = 2000


def data_normalizer(spec) -> float:
    """1 + max(position data norm, k * velocity data norm).

    The residuals compare grid values and one-step increments, and the
    velocity data enter those as k*Gv, so Gv is scaled by k here.  The
    solver's ProblemSpec.data_scale tests the data vectors themselves and
    leaves Gv unscaled; it is not imported, so the oracle shares no code
    with the construction.
    """
    F = np.asarray(spec.F)
    Gv = np.asarray(spec.Gv)
    fmax = float(np.abs(F).sum(axis=1).max()) if F.size else 0.0
    gmax = float(np.abs(Gv).sum(axis=1).max()) if Gv.size else 0.0
    return 1.0 + max(fmax, spec.grid.k * gmax)


@dataclass
class ResidualReport:
    """Maximum relative defects of a grid against the discrete equations."""

    interior_max: float
    left_bc_max: float
    right_bc_max: float
    init_pos_max: float
    init_vel_max: float
    normalizer: float

    @property
    def worst(self) -> float:
        return max(self.interior_max, self.left_bc_max, self.right_bc_max,
                   self.init_pos_max, self.init_vel_max)


def _node_norms(rows: np.ndarray) -> float:
    if rows.size == 0:
        return 0.0
    return float(np.abs(rows).sum(axis=-1).max())


def interior_residual(U, E, A, grid, normalizer: float = 1.0) -> float:
    """Max relative defect of the interior two-level stencil.

    Checks E*(U(i,j+1) - 2U(i,j) + U(i,j-1)) = r^2 A*(U(i+1,j) - 2U(i,j)
    + U(i-1,j)) over 0 < i < N, 0 < j < M.
    """
    U = np.asarray(U, dtype=complex)
    N, M = grid.N, grid.M
    if N < 2 or M < 2:
        return 0.0
    r2 = grid.r ** 2
    Em = np.asarray(E, dtype=complex)
    Am = np.asarray(A, dtype=complex)
    inner = U[1:N, 1:M]
    dtt = U[1:N, 2:M + 1] - 2.0 * inner + U[1:N, 0:M - 1]
    dxx = U[2:N + 1, 1:M] - 2.0 * inner + U[0:N - 1, 1:M]
    res = dtt @ Em.T - r2 * (dxx @ Am.T)
    return _node_norms(res) / normalizer


def boundary_residual(U, spec, normalizer: float = None) -> tuple[float, float]:
    """Max relative defects of the two endpoint relations over 0 < j <= M.

    Left: A1 U(0,j) + N A2 (U(1,j) - U(0,j)) = 0; right uses B1, B2 at
    i = N with a backward difference.
    """
    U = np.asarray(U, dtype=complex)
    if normalizer is None:
        normalizer = data_normalizer(spec)
    N, M = spec.grid.N, spec.grid.M
    cols = slice(1, M + 1)
    left = (U[0, cols] @ spec.A1.T
            + N * (U[1, cols] - U[0, cols]) @ spec.A2.T)
    right = (U[N, cols] @ spec.B1.T
             + N * (U[N, cols] - U[N - 1, cols]) @ spec.B2.T)
    return _node_norms(left) / normalizer, _node_norms(right) / normalizer


def initial_residual(U, spec, normalizer: float = None) -> tuple[float, float]:
    """Max relative defects of the initial position and velocity rows
    over all nodes 0 <= i <= N."""
    U = np.asarray(U, dtype=complex)
    if normalizer is None:
        normalizer = data_normalizer(spec)
    k = spec.grid.k
    pos = U[:, 0] - spec.F
    vel = (U[:, 1] - U[:, 0]) / k - spec.Gv
    return _node_norms(pos) / normalizer, _node_norms(vel) / normalizer


def residual_report(U, spec) -> ResidualReport:
    """All five defect maxima of a grid against one problem."""
    norm = data_normalizer(spec)
    inter = interior_residual(U, spec.E, spec.A, spec.grid, norm)
    left, right = boundary_residual(U, spec, norm)
    pos, vel = initial_residual(U, spec, norm)
    return ResidualReport(inter, left, right, pos, vel, norm)


@dataclass
class ReferenceSolution:
    """Dense minimum-norm solve of the full stacked discrete system.

    ``kernel`` is an orthonormal basis (unknowns x q) of the stack's null
    space, the solution family's free directions; ``U`` is orthogonal to
    it.
    """

    U: np.ndarray  # (N+1, M+1, m)
    kernel: np.ndarray
    residual: float


def brute_force_reference(spec, tol: float = 1e-9) -> ReferenceSolution:
    """Solve every discrete equation at once as one dense linear system.

    Unknowns are all grid values U(i,j); rows stack the interior stencil,
    both endpoint relations at every time level, and the two initial
    rows.  The minimum-norm solution is returned together with an
    orthonormal basis of the stack's null space (the solution family's
    free directions), both from one SVD.
    """
    N, M, m = spec.grid.N, spec.grid.M, spec.m
    n_unknowns = m * (N + 1) * (M + 1)
    if n_unknowns > SIZE_CAP:
        raise SizeCapExceeded(
            f"{n_unknowns} unknowns exceed the dense reference cap {SIZE_CAP}")
    r2 = spec.grid.r ** 2
    k = spec.grid.k

    def block(rows, row0, i, j, coef):
        col0 = (i * (M + 1) + j) * m
        rows[row0:row0 + m, col0:col0 + m] += coef

    n_rows = (m * (N - 1) * (M - 1)  # interior
              + 2 * m * (M + 1)      # endpoint relations
              + 2 * m * (N + 1))     # initial rows
    mats = [np.asarray(X) for X in (spec.E, spec.A, spec.A1, spec.A2,
                                     spec.B1, spec.B2)]
    if not any(np.iscomplexobj(X) and X.imag.any() for X in mats):
        mats = [X.real for X in mats]  # the stack is real: half the memory
    E, A, A1, A2, B1, B2 = mats
    dtype = np.result_type(float, *mats)
    K = np.zeros((n_rows, n_unknowns), dtype=dtype)
    b = np.zeros(n_rows, dtype=complex)
    row = 0
    for i in range(1, N):
        for j in range(1, M):
            block(K, row, i, j + 1, E)
            block(K, row, i, j, -2.0 * E + 2.0 * r2 * A)
            block(K, row, i, j - 1, E)
            block(K, row, i + 1, j, -r2 * A)
            block(K, row, i - 1, j, -r2 * A)
            row += m
    NA2 = N * A2
    NB2 = N * B2
    for j in range(M + 1):
        block(K, row, 0, j, A1 - NA2)
        block(K, row, 1, j, NA2)
        row += m
        block(K, row, N, j, B1 + NB2)
        block(K, row, N - 1, j, -NB2)
        row += m
    eye = np.eye(m, dtype=dtype)
    for i in range(N + 1):
        block(K, row, i, 0, eye)
        b[row:row + m] = spec.F[i]
        row += m
        block(K, row, i, 1, eye)
        block(K, row, i, 0, -eye)
        b[row:row + m] = k * spec.Gv[i]
        row += m

    sol = mitra_solve(K, b, tol=tol)
    if not sol.consistent:
        raise InconsistentSystem(
            f"stacked discrete system inconsistent "
            f"(residual {sol.residual:.3e})")
    U = sol.particular.reshape(N + 1, M + 1, m)
    return ReferenceSolution(U, sol.kernel, sol.residual)


def reference_deviation(U, ref: ReferenceSolution, projector,
                        spec) -> float:
    """Distance from U to the reference's solution family, on the
    propagating subspace.

    The difference is first stripped of its component along the stack's
    free directions (kernel alignment), then each node is restricted by
    the supplied projector; the result is the max nodal 1-norm relative
    to the data normalizer.
    """
    U = np.asarray(U, dtype=complex)
    d = (U - ref.U).reshape(-1)
    Z = ref.kernel
    aligned = d - Z @ (Z.conj().T @ d)
    nodes = aligned.reshape(-1, spec.m) @ np.asarray(projector,
                                                    dtype=complex).T
    return _node_norms(nodes) / data_normalizer(spec)
