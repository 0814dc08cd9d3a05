"""The output tables written row by row through ``csv.writer``: a test
oracle for the bytes of ``singwave.csv_io.write_solution_csv`` and
``write_eigen_csv``."""

import csv

import numpy as np


def solution_csv_oracle(U, grid, path):
    """Grid values, one row per (i, j), i outer; csv writes each Python
    float as its repr and ends each row with CRLF."""
    N, M, m = U.shape[0] - 1, U.shape[1] - 1, U.shape[2]
    header = ["i", "j", "x", "t"]
    for c in range(m):
        header.extend([f"u{c}_re", f"u{c}_im"])
    # real and imaginary parts interleaved, one row per node
    values = np.ascontiguousarray(U, dtype=complex).view(float).reshape(
        -1, 2 * m)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        i, j = np.divmod(np.arange(len(values)), M + 1)
        writer.writerows(zip(i.tolist(), j.tolist(), (i / N).tolist(),
                             (j * grid.k).tolist(), *values.T.tolist()))


def eigen_csv_oracle(eigenpairs, path):
    """Eigenvalue table, one row per mode."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["l", "lambda"])
        writer.writerows(enumerate(eigenpairs.lam.tolist(), start=1))
