"""The CSV writers against the ``csv.writer`` oracle, byte for byte."""

import numpy as np
import pytest

from csv_oracle import eigen_csv_oracle, solution_csv_oracle
from singwave.cli import (
    main,
    read_solution_csv,
    write_problem,
    write_solution_csv,
)
from singwave.fixtures import demo_problem
from singwave.solver import GridParams, solve_problem
from singwave.sturm_liouville import solve_psd

BIG = np.finfo(float).max
# where repr changes form or runs out of digits, and both signed zeros
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, np.finfo(float).tiny, BIG, -BIG,
            1e16, 9999999999999998.0, 1e-5, 1e-4, 0.0001234, 1e22, 1.0,
            123456789012345680.0, 0.1 + 0.2]


def _grid(N, M, k=0.5):
    return GridParams.create(N, k, M * k)


def _pool_values(shape, seed):
    """Complex grid drawn from a small pool, so that values repeat within
    and across columns and blocks, with both signed zeros among them."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([EXTREMES, rng.standard_normal(30)])
    parts = rng.choice(pool, size=(*shape, 2))
    return parts[..., 0] + 1j * parts[..., 1]


def _signed_zeros():
    # -0.0 and 0.0 alternate in every column of one 15-node block
    U = np.zeros((3, 5, 2), dtype=complex)
    parts = U.view(float).reshape(-1, 4)
    parts[::2] = -0.0
    parts[1::4, 1] = 2.5
    return U, _grid(2, 4)


def _zero_column():
    U = _pool_values((4, 6, 3), seed=1)
    U[:, :, 1] = 0.0
    return U, _grid(3, 5)


def _zero_first_block():
    # 3 x 2049 = 6147 nodes; the first 4096-node block is all zero
    U = _pool_values((3, 2049, 1), seed=2)
    U.reshape(-1)[:4096] = 0.0
    return U, _grid(2, 2048)


def _extremes():
    U = np.array(EXTREMES[::-1] + EXTREMES, dtype=float).view(complex)
    return U.reshape(4, 4, 1), _grid(3, 3)


def _non_dyadic():
    # x = i/10 and t = j*0.1 are not i*(1/10), linspace(0, T, M + 1) or
    # round(j*k, ...): the oracle holds 0.3 for x and 0.30000000000000004
    # for t
    return _pool_values((11, 4, 2), seed=3), GridParams.create(10, 0.1, 0.3)


def _alternating():
    # two values take turns down every column: each repeats, never next
    # to itself
    U = np.empty((3, 40, 2), dtype=complex)
    U.view(float).reshape(-1, 4)[:] = np.where(
        np.arange(120)[:, None] % 2, [1.5, -0.0, 0.1, 7.0],
        [2.5, 0.0, 0.2, -7.0])
    return U, _grid(2, 39)


def _signed_zero_runs():
    # runs of -0.0 and of 0.0 of lengths 1 to 4, side by side, in every
    # column
    signs = np.repeat(np.arange(104) % 2, np.tile([3, 1, 4, 2], 26))
    parts = np.where(signs[:252], -0.0, 0.0).reshape(6, 21, 2)
    return parts.view(complex), _grid(5, 20)


def _block_inside_row():
    # m = 3 gives blocks of 1365 nodes, fewer than the 2001 levels, so
    # the second block starts inside row 0 and ends inside row 1; u0 is
    # constant along each row and u2 is zero, so runs cross both edges
    U = _pool_values((3, 2001, 3), seed=10)
    U[:, :, 0] = U[:, :1, 0]
    U[:, :, 2] = 0.0
    return U, GridParams.create(2, 1e-3, 2.0)


CASES = {
    "signed-zeros": _signed_zeros,
    "zero-column": _zero_column,
    "zero-first-block": _zero_first_block,
    "extremes": _extremes,
    "non-dyadic-k": _non_dyadic,
    "m=1": lambda: (_pool_values((4, 3, 1), seed=4), _grid(3, 2)),
    # 500 nodes of 12 components span two blocks of 4096 values
    "m=12": lambda: (_pool_values((5, 100, 12), seed=5), _grid(4, 99)),
    # node counts about the 4096-node block
    "4095-nodes": lambda: (_pool_values((5, 819, 1), seed=6), _grid(4, 818)),
    "4096-nodes": lambda: (_pool_values((4, 1024, 1), seed=7),
                           _grid(3, 1023)),
    "4097-nodes": lambda: (_pool_values((17, 241, 1), seed=8),
                           _grid(16, 240)),
    "12003-nodes": lambda: (_pool_values((3, 4001, 2), seed=9),
                            GridParams.create(2, 1e-3, 4.0)),
    # where a scan of runs differs from a sort of the whole column
    "alternating": _alternating,
    "signed-zero-runs": _signed_zero_runs,
    "block-inside-row": _block_inside_row,
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_solution_csv_matches_the_csv_writer_oracle(case, tmp_path):
    U, grid = case()
    expected, written = tmp_path / "oracle.csv", tmp_path / "solution.csv"
    solution_csv_oracle(U, grid, str(expected))
    write_solution_csv(U, grid, str(written))
    assert written.read_bytes() == expected.read_bytes()


def test_oracle_cases_hold_what_they_name(tmp_path):
    U, grid = _non_dyadic()
    path = tmp_path / "oracle.csv"
    solution_csv_oracle(U, grid, str(path))
    # the header, then node (3, 3) of a 4-level grid
    row = path.read_text().splitlines()[1 + 3 * 4 + 3].split(",")
    assert row[:4] == ["3", "3", "0.3", "0.30000000000000004"]
    U, _ = _signed_zeros()
    bits = set(U.view(np.int64).ravel().tolist())
    assert {0, np.float64(-0.0).view(np.int64)} <= bits
    negative_zero = np.float64(-0.0).view(np.int64)
    U, _ = _alternating()
    for column in U.view(np.int64).reshape(-1, 4).T:
        assert len(set(column.tolist())) == 2
        assert (column[1:] != column[:-1]).all()
    U, _ = _signed_zero_runs()
    for column in U.view(np.int64).reshape(-1, 2).T:
        assert set(column.tolist()) == {0, negative_zero}
        runs = np.diff(np.flatnonzero(column[1:] != column[:-1]))
        assert (runs > 1).any() and (runs == 1).any()
    U, _ = _block_inside_row()
    levels, step = U.shape[1], 4096 // U.shape[2]
    assert step < levels < 2 * step


def test_solve_writes_the_oracle_bytes(tmp_path):
    spec = demo_problem()
    problem = tmp_path / "problem.json"
    write_problem(spec, str(problem))
    assert main(["solve", "--input", str(problem), "--out-dir",
                 str(tmp_path), "--quiet"]) == 0
    U = solve_problem(spec).U
    solution_csv_oracle(U, spec.grid, str(tmp_path / "oracle.csv"))
    eigen_csv_oracle(solve_psd(spec.sl_problem()),
                     str(tmp_path / "oracle_eigen.csv"))
    written = tmp_path / "solution.csv"
    assert written.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert ((tmp_path / "eigen.csv").read_bytes()
            == (tmp_path / "oracle_eigen.csv").read_bytes())
    back = read_solution_csv(str(written), spec)
    assert np.array_equal(back.view(np.int64), U.view(np.int64))
