"""The whole discrete system as one dense matrix, and its general
solution: a test oracle for the marched reference in ``singwave.verify``."""

from types import SimpleNamespace

import numpy as np

from singwave.matrix_core import min_norm_solve, one_norm, rank_and_kernel


def general_solution(A, b, tol=1e-8):
    """Mitra's general solution of A x = b from the library's own pieces.

    ``particular`` is the minimum-norm solution (min_norm_solve) and
    ``kernel`` an orthonormal basis of A's null space (rank_and_kernel).
    ``consistent`` tells whether ``particular`` solves the rows to ``tol``
    relative to b; then the solutions are ``particular + kernel @ z``.
    """
    A = np.asarray(A)
    b = np.asarray(b, dtype=complex).reshape(-1)
    x = min_norm_solve(A, b[:, None])[:, 0]
    consistent = one_norm(A @ x - b) <= tol * (1.0 + one_norm(b))
    return SimpleNamespace(consistent=bool(consistent), particular=x,
                           kernel=rank_and_kernel(A)[1])


def stacked_system(spec):
    """Stacked matrix K and right side b of every discrete equation.

    Unknowns are all grid values U(i,j), ordered (i, j, component); rows
    stack the interior stencil, both endpoint relations at every time
    level, and the two initial rows, in that order.  K is real when no
    coefficient has an imaginary part.
    """
    N, M, m = spec.grid.N, spec.grid.M, spec.m
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
        mats = [X.real for X in mats]
    E, A, A1, A2, B1, B2 = mats
    dtype = np.result_type(float, *mats)
    K = np.zeros((n_rows, m * (N + 1) * (M + 1)), dtype=dtype)
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
    return K, b
