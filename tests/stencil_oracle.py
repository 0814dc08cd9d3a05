"""The interior stencil formed over the whole grid in one pass: a test
oracle for the value of ``singwave.verify.interior_residual``."""

import numpy as np


def interior_residual_oracle(U, E, A, grid, normalizer=1.0):
    """Max relative defect of E dtt U = r^2 A dxx U over every interior
    node at once, with the expressions and order of the blocked oracle."""
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
    return float(np.abs(res).sum(axis=-1).max()) / normalizer
