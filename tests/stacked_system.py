"""The whole discrete system as one dense matrix: a test oracle for the
marched reference in ``singwave.verify``."""

import numpy as np


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
