"""The grid assembled by stepping the propagator stack: a test oracle that
takes every mode's table Z0^j P + Z1^j Q as M batched products, whatever
the pencil's core, apart from the solver's closed-form powers."""

import numpy as np

from singwave.sturm_liouville import boundary_scalars


def stepped_assembly(spec, propagators, amps, eigenpairs):
    """The (N+1, M+1, m) grid of a solve, assembled by stepping.

    Both branches step as one (branch, modes, m, 1) stack of columns, one
    complex product carries the tables to the interior nodes, and the
    endpoint rows and a real problem's imaginary parts are set as
    solver.assemble_solution sets them.
    """
    N, M, m = spec.grid.N, spec.grid.M, spec.m
    U = np.empty((N + 1, M + 1, m), dtype=complex)
    Z = np.stack([propagators.Z0, propagators.Z1])
    cur = np.stack([amps.P, amps.Q])[..., None]
    tables = np.empty((amps.P.shape[0], M + 1, m), dtype=complex)
    tables[:, 0] = cur.sum(axis=0)[..., 0]
    for j in range(1, M + 1):
        cur = Z @ cur
        tables[:, j] = cur.sum(axis=0)[..., 0]
    np.matmul(eigenpairs.v.T, tables.reshape(len(tables), -1),
              out=U[1:N].reshape(N - 1, (M + 1) * m))
    a, b = boundary_scalars(spec.sl_problem())
    U[0] = a * U[1] + 0.0
    U[N] = b * U[N - 1] + 0.0
    if spec.is_real():
        U.imag[...] = 0.0
    return U
