"""The CSV writers against the ``csv.writer`` oracle, byte for byte."""

import os

import numpy as np
import pytest

from csv_oracle import eigen_csv_oracle, solution_csv_oracle
from singwave import cli
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


def _split_inside_row_and_zero_run():
    # m = 2 gives blocks of 2048 nodes, fewer than the 2501 levels; the
    # middle node 7503 // 2 = 3751, where a two-process write splits, is
    # (1, 1250): inside row 1 and inside a run of -0.0 in every column
    U = _pool_values((3, 2501, 2), seed=11)
    U.reshape(-1, 2)[3740:3760] = complex(-0.0, -0.0)
    return U, GridParams.create(2, 1e-3, 2.5)


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
    "split-inside-row-and-zero-run": _split_inside_row_and_zero_run,
}
# where the process may fork a writer that runs beside it
TWO_PROCESSES = pytest.mark.skipif(
    not cli._split_writer(), reason="needs os.fork, os.memfd_create and "
                                    "two CPUs")


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_solution_csv_matches_the_csv_writer_oracle(case, tmp_path):
    U, grid = case()
    expected, written = tmp_path / "oracle.csv", tmp_path / "solution.csv"
    solution_csv_oracle(U, grid, str(expected))
    write_solution_csv(U, grid, str(written))
    assert written.read_bytes() == expected.read_bytes()


@TWO_PROCESSES
@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_split_solution_csv_matches_the_csv_writer_oracle(case, tmp_path,
                                                         monkeypatch):
    # every case written by two processes, each formatting half the nodes
    monkeypatch.setattr(cli, "_CSV_SPLIT", 1)
    test_solution_csv_matches_the_csv_writer_oracle(case, tmp_path)


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
    U, _ = _split_inside_row_and_zero_run()
    levels, step = U.shape[1], cli._CSV_BLOCK // U.shape[2]
    i, j = divmod(U.shape[0] * levels // 2, levels)
    assert levels >= step and 0 < j < levels - 1
    bits = U.view(np.int64).reshape(-1, 2 * U.shape[2])
    middle = i * levels + j
    assert (bits[middle - 1:middle + 1] == negative_zero).all()


def test_solve_writes_the_oracle_bytes(tmp_path):
    _solve_against_the_oracle(demo_problem(), tmp_path, tmp_path)


@TWO_PROCESSES
def test_solve_above_the_split_writes_the_oracle_bytes(tmp_path):
    # 65 x 257 nodes of 3 components: 100230 values, which two processes
    # write; only the three outputs are left, and no child process
    spec = demo_problem(64, 1.0 / 256, 1.0)
    assert 2 * spec.m * 65 * 257 >= cli._CSV_SPLIT
    out = tmp_path / "out"
    _solve_against_the_oracle(spec, tmp_path, out)
    assert sorted(os.listdir(out)) == ["eigen.csv", "report.txt",
                                       "solution.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _solve_against_the_oracle(spec, tmp_path, out):
    """Solve spec through the CLI into out; its solution.csv and
    eigen.csv must be the oracles' bytes and read back bit for bit."""
    problem = tmp_path / "problem.json"
    write_problem(spec, str(problem))
    assert main(["solve", "--input", str(problem), "--out-dir",
                 str(out), "--quiet"]) == 0
    U = solve_problem(spec).U
    solution_csv_oracle(U, spec.grid, str(tmp_path / "oracle.csv"))
    eigen_csv_oracle(solve_psd(spec.sl_problem()),
                     str(tmp_path / "oracle_eigen.csv"))
    written = out / "solution.csv"
    assert written.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert ((out / "eigen.csv").read_bytes()
            == (tmp_path / "oracle_eigen.csv").read_bytes())
    back = read_solution_csv(str(written), spec)
    assert np.array_equal(back.view(np.int64), U.view(np.int64))
