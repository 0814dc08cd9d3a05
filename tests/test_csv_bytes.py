"""The CSV writers against the ``csv.writer`` oracle, byte for byte, the
value cells of ``solution.csv`` against ``repr``, the two-process read
of ``solution.csv`` against the one-process read, and the text its
reader takes and refuses."""

import io
import json
import os
import pathlib
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csv_oracle import eigen_csv_oracle, solution_csv_oracle
from singwave import csv_io
from singwave.cli import (
    main,
    read_solution_csv,
    write_problem,
    write_solution_csv,
)
from singwave.errors import ParseError
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
# where the process may fork a writer or reader that runs beside it
TWO_PROCESSES = pytest.mark.skipif(
    not csv_io._two_processes(),
    reason="needs os.fork, os.memfd_create and two CPUs")


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
    monkeypatch.setattr(csv_io, "_CSV_SPLIT", 1)
    test_solution_csv_matches_the_csv_writer_oracle(case, tmp_path)


def _rows_against_repr(cells, m):
    """Write cells, zero-padded, as the value columns of a grid of N = 2
    with m components; each row's value cells must be repr's text."""
    width = 3 * 2 * m  # one level of the grid
    values = np.zeros(max(2, -(-len(cells) // width)) * width)
    values[:len(cells)] = cells
    values = values.reshape(-1, 2 * m)
    out = io.BytesIO()
    csv_io._write_nodes(out, values, _grid(2, len(values) // 3 - 1), 0,
                        len(values))
    rows = out.getvalue().split(b"\r\n")
    assert rows.pop() == b""
    assert [row.split(b",", 4)[4] for row in rows] == [
        ",".join(map(repr, row)).encode() for row in values.tolist()]


def _float_of_bits(sign, exponent, mantissa):
    return struct.unpack("<d", struct.pack(
        "<Q", sign << 63 | exponent << 52 | mantissa))[0]


# finite floats of every binary exponent (subnormals and zeros among
# them), floats about the decimal exponents where repr's or orjson's text
# changes form (-5 and 16), and hypothesis's own finite floats
FINITE = st.one_of(
    st.builds(_float_of_bits, st.integers(0, 1), st.integers(0, 2046),
              st.integers(0, 2 ** 52 - 1)),
    st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
              st.floats(-10, 10), st.integers(-12, 20)),
    st.floats(allow_nan=False, allow_infinity=False))


# 30 to 60 cells an example, so that a cell in [1e-5, 1e-4) turns up in
# about half of the examples
@settings(max_examples=100, deadline=None, derandomize=True)
@given(cells=st.lists(FINITE, min_size=30, max_size=60),
       m=st.integers(1, 3))
def test_value_cells_are_repr_of_finite_floats(cells, m):
    _rows_against_repr(cells, m)


# where orjson's text is not repr's (a decimal exponent of -5, inf and
# nan) or where repr changes form, each beside cells of either form
@pytest.mark.parametrize("value", [
    0.0, -0.0, 5e-324, 1e-05, 9.999999999999999e-05, 1e-4, 1e16,
    9999999999999998.0, float("inf"), float("nan")], ids=repr)
def test_value_cells_are_repr_where_the_form_changes(value):
    _rows_against_repr([value, 1.5e-07, -value, 1e+22, 1.0, value], 1)


def _serial_body(path):
    """The float rows of a solution table, parsed by one process."""
    with open(path, encoding="utf-8", newline="") as fh:
        start = len(fh.readline())  # an ASCII header of any line end
        return csv_io._parse_bytes(fh.fileno(), start,
                                   os.fstat(fh.fileno()).st_size)


def _one_process(*args):
    pytest.fail("the table was read by one process")


@TWO_PROCESSES
@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_split_read_returns_the_serial_bits(case, tmp_path, monkeypatch):
    # two processes, each parsing and checking its own byte range, return
    # the grid that one process reads and that was written, bit for bit;
    # a table sent back to one process fails the test
    U, grid = case()
    path = str(tmp_path / "solution.csv")
    write_solution_csv(U, grid, path)
    spec = SimpleNamespace(grid=grid, m=U.shape[2])
    monkeypatch.setattr(csv_io, "_CSV_SPLIT", 2 ** 62)
    serial = read_solution_csv(path, spec)
    monkeypatch.setattr(csv_io, "_CSV_SPLIT", 1)
    monkeypatch.setattr(csv_io, "_solution_grid", _one_process)
    two = read_solution_csv(path, spec)
    for back in (serial, two):
        assert np.array_equal(back.view(np.int64), U.view(np.int64))


# a 3 x 401 grid of 2 components, 1203 nodes of about 100 bytes: the
# parent parses body rows 0 to 600, the child rows 601 to 1202, and a row
# of either half lies past the first 8192 bytes, which the header's
# readline decodes
ROWS, HALF = 1203, 601
PARENT_ROW, CHILD_ROW = 300, 900


def _set_cell(column, text):
    def edit(lines, r):
        cells = lines[r].split(b",")
        cells[column] = text
        lines[r] = b",".join(cells)
    return edit


def _insert(lines, r):
    lines.insert(r, lines[r])


DEFECTS = {
    "bad-cell": _set_cell(5, b"abc"),
    "nan": _set_cell(4, b"nan"),
    # an index cell that names another node, with x and t left alone
    "i-off-the-order": _set_cell(0, b"1"),
    "j-off-the-order": _set_cell(1, b"7"),
    "x-off-the-grid": _set_cell(2, b"123.0"),
    "t-off-the-grid": _set_cell(3, b"1e-9"),
    "repeated-row": _insert,
    "missing-row": lambda lines, r: lines.pop(r),
    "invalid-utf8": lambda lines, r: lines.__setitem__(
        r, lines[r][:7] + b"\xff" + lines[r][8:]),
}


def _damaged_table(tmp_path, edit):
    """Write the 1203-node table, pass its body rows to edit, and return
    its path and the reader's spec."""
    U, grid = _pool_values((3, 401, 2), seed=14), GridParams.create(
        2, 1e-3, 0.4)
    path = tmp_path / "solution.csv"
    write_solution_csv(U, grid, str(path))
    header, *lines = path.read_bytes().split(b"\r\n")
    assert len(lines) == ROWS + 1  # the text ends with a line end
    assert len(header) + sum(map(len, lines[:PARENT_ROW])) > 8192
    edit(lines)
    path.write_bytes(b"\r\n".join([header, *lines]))
    return str(path), SimpleNamespace(grid=grid, m=2)


def _serial_and_split_errors(path, spec, monkeypatch):
    messages = []
    for split in (2 ** 62, 1):
        monkeypatch.setattr(csv_io, "_CSV_SPLIT", split)
        with pytest.raises(ParseError) as info:
            read_solution_csv(path, spec)
        messages.append(str(info.value))
    return messages


@TWO_PROCESSES
@pytest.mark.parametrize("row", [PARENT_ROW, CHILD_ROW],
                         ids=["parent-half", "child-half"])
@pytest.mark.parametrize("defect", DEFECTS.values(), ids=DEFECTS.keys())
def test_split_read_raises_the_serial_error(defect, row, tmp_path,
                                            monkeypatch):
    assert (row < HALF) == (row == PARENT_ROW)
    path, spec = _damaged_table(tmp_path, lambda lines: defect(lines, row))
    serial, split = _serial_and_split_errors(path, spec, monkeypatch)
    assert split == serial


@TWO_PROCESSES
def test_split_read_of_a_body_shorter_than_half(tmp_path, monkeypatch):
    # 450 rows: row 0 and part of row 1
    path, spec = _damaged_table(tmp_path, lambda lines: lines.__delitem__(
        slice(450, -1)))
    serial, split = _serial_and_split_errors(path, spec, monkeypatch)
    assert split == serial and "missing grid rows" in serial


@TWO_PROCESSES
@pytest.mark.parametrize("defect", ["repeated-row", "missing-row"])
def test_split_read_raises_the_serial_error_about_the_cut(defect, tmp_path,
                                                         monkeypatch):
    # a row repeated or missing at each of the rows about the middle, so
    # that one of them falls where the body is cut: each half alone is
    # in the writer's order, and only the count of nodes tells
    for row in range(HALF - 3, HALF + 4):
        (tmp_path / str(row)).mkdir()
        path, spec = _damaged_table(tmp_path / str(row), lambda lines: (
            DEFECTS[defect](lines, row)))
        serial, split = _serial_and_split_errors(path, spec, monkeypatch)
        assert split == serial


@TWO_PROCESSES
def test_split_read_of_a_header_alone(tmp_path, monkeypatch):
    path, spec = _damaged_table(tmp_path, lambda lines: lines.__delitem__(
        slice(0, -1)))
    serial, split = _serial_and_split_errors(path, spec, monkeypatch)
    assert split == serial and "expected rows of 8 numbers" in serial


@TWO_PROCESSES
def test_split_read_accepts_a_blank_line_as_the_serial_read_does(
        tmp_path, monkeypatch):
    # np.loadtxt skips a blank line in either byte range, and the ranges
    # cannot overlap, so two processes read the table themselves
    monkeypatch.setattr(csv_io, "_solution_grid", _one_process)
    monkeypatch.setattr(csv_io, "_CSV_SPLIT", 1)
    for row in (PARENT_ROW, CHILD_ROW):
        (tmp_path / str(row)).mkdir()
        path, spec = _damaged_table(tmp_path / str(row),
                                    lambda lines: lines.insert(row, b""))
        serial = _serial_body(path)
        back = read_solution_csv(path, spec)
        assert np.array_equal(
            back.reshape(-1).view(np.int64).reshape(ROWS, 4),
            serial[:, 4:].view(np.int64))


def _logged(log, function):
    """function, which appends the byte range it is called on to the file
    log, in the forked child as in this process."""
    def logging(fd, lo, hi):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{lo} {hi}\n")
        return function(fd, lo, hi)
    return logging


@TWO_PROCESSES
@pytest.mark.parametrize("end", [b"\r\n", b"\n", b"\r"],
                         ids=["crlf", "lf", "cr"])
def test_split_read_cuts_the_body_at_a_line_start(end, tmp_path,
                                                  monkeypatch):
    # the two byte ranges join to exactly the body, cut at its first line
    # start at or after the middle, whatever the line ends; the table is
    # read by the two processes, which leave no child and no open file
    path, spec = _damaged_table(tmp_path, lambda lines: None)
    header, body = pathlib.Path(path).read_bytes().split(b"\r\n", 1)
    with open(path, "wb") as fh:
        fh.write(header + end + body.replace(b"\r\n", end))
    serial = _serial_body(path)
    log = str(tmp_path / "ranges.txt")
    monkeypatch.setattr(csv_io, "_CSV_SPLIT", 1)
    monkeypatch.setattr(csv_io, "_solution_grid", _one_process)
    monkeypatch.setattr(csv_io, "_parse_bytes",
                        _logged(log, csv_io._parse_bytes))
    fds = sorted(os.listdir("/proc/self/fd"))
    back = read_solution_csv(path, spec)
    assert np.array_equal(back.reshape(-1).view(np.int64).reshape(ROWS, 4),
                          serial[:, 4:].view(np.int64))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds
    text = pathlib.Path(path).read_bytes()
    start = len(header + end)
    ranges = sorted(tuple(map(int, line.split()))
                    for line in pathlib.Path(log).read_text().splitlines())
    (lo, cut), (cut2, hi) = ranges
    assert (lo, cut2, hi) == (start, cut, len(text))
    middle = start + (len(text) - start) // 2
    line_starts = [m.end() for m in re.finditer(re.escape(end), text)]
    assert cut == min(p for p in line_starts if p >= middle)


@TWO_PROCESSES
def test_split_read_of_a_header_of_another_m(tmp_path, monkeypatch):
    # a header of three components above rows of two, read for a
    # problem of two: rows of the problem's width do not make the split
    # accept a table that one process rejects
    path, spec = _damaged_table(tmp_path, lambda lines: None)
    header, body = pathlib.Path(path).read_bytes().split(b"\r\n", 1)
    with open(path, "wb") as fh:
        fh.write(",".join(csv_io._solution_header(3)).encode() + b"\r\n"
                 + body)
    serial, split = _serial_and_split_errors(path, spec, monkeypatch)
    assert split == serial and "expected rows of 10 numbers" in serial


def _bit_sweep():
    """A grid of 3 components holding floats of every binary exponent
    (subnormals among them) with four mantissas, each with both signs
    (both zeros among them), the [1e-5, 1e-4) band, 1e16 and the floats
    beside it, and floats whose repr has 17 significant digits."""
    exponents = np.arange(2047, dtype=np.uint64) << np.uint64(52)
    mantissas = np.array([0, 1, 2 ** 51 + 12345, 2 ** 52 - 1],
                         dtype=np.uint64)
    bits = (exponents[:, None] | mantissas).ravel()
    swept = np.concatenate([bits, bits | np.uint64(1 << 63)]).view(float)
    decimals = np.array([1e-5, 1e-4, 1e16, 0.1, 0.3, 1.1, 1e22, 123.456])
    others = np.concatenate([
        np.geomspace(1e-5, 1e-4, 200, endpoint=False),
        np.nextafter(decimals, np.inf), np.nextafter(decimals, -np.inf),
        decimals, [9999999999999998.0, 0.1 + 0.2]])
    values = np.concatenate([swept, others, -others])
    nodes = -(-len(values) // 6)
    levels = -(-nodes // 3)
    U = np.zeros(3 * levels * 6)
    U[:len(values)] = values
    return U.view(complex).reshape(3, levels, 3), _grid(2, levels - 1)


@pytest.mark.parametrize("split", [2 ** 62, 1], ids=["one-process", "split"])
def test_read_returns_the_written_bits(split, tmp_path, monkeypatch):
    # what write_solution_csv writes, read_solution_csv reads back bit for
    # bit, by one process and by two; with two, the table must not be
    # sent back to one process
    U, grid = _bit_sweep()
    path = str(tmp_path / "solution.csv")
    write_solution_csv(U, grid, path)
    monkeypatch.setattr(csv_io, "_CSV_SPLIT", split)
    if split == 1 and csv_io._two_processes():
        monkeypatch.setattr(csv_io, "_solution_grid", _one_process)
    back = read_solution_csv(path, SimpleNamespace(grid=grid, m=3))
    assert np.array_equal(back.view(np.int64), U.view(np.int64))


@pytest.mark.parametrize("read_block", [1, 7, 100, 2 ** 16])
@pytest.mark.parametrize("end", [b"\r\n", b"\n", b"\r"],
                         ids=["crlf", "lf", "cr"])
def test_read_is_the_same_for_any_read_size(end, read_block, tmp_path,
                                            monkeypatch):
    # reads shorter than a line (doubled until one ends in them) and cuts
    # between the CR and LF of a line end give the written bits
    U, grid = _extremes()
    path = tmp_path / "solution.csv"
    write_solution_csv(U, grid, str(path))
    path.write_bytes(path.read_bytes().replace(b"\r\n", end))
    monkeypatch.setattr(csv_io, "_READ_BLOCK", read_block)
    back = read_solution_csv(str(path), SimpleNamespace(grid=grid, m=1))
    assert np.array_equal(back.view(np.int64), U.view(np.int64))


def test_read_takes_any_spelling_of_a_json_number(tmp_path):
    # value cells spelled otherwise than by repr, blanks about them, read
    # as JSON numbers: -0 is the integer 0, so 0.0, and an integer beyond
    # 64 bits is the nearest float
    spellings = [b"-0", b"1E+2", b" 2.50\t", b"100", b"-1e-400",
                 b"12345678901234567890", b"0.1e1", b"-0.0"]
    cells = spellings * 2  # 12 value cells: 6 nodes of 1 component
    grid = _grid(2, 1)
    path = tmp_path / "solution.csv"
    write_solution_csv(np.zeros((3, 2, 1), dtype=complex), grid, str(path))
    header, *lines = path.read_bytes().split(b"\r\n")
    for r in range(6):
        lines[r] = b",".join(lines[r].split(b",")[:4] + cells[2 * r:][:2])
    path.write_bytes(b"\r\n".join([header, *lines]))
    back = read_solution_csv(str(path), SimpleNamespace(grid=grid, m=1))
    expected = np.array([float(json.loads(text)) for text in cells[:12]])
    assert np.array_equal(back.view(np.int64).ravel(),
                          expected.view(np.int64))
    assert expected[0] == 0.0 and not np.signbit(expected[0])


REFUSED = {"plus-sign": b"+1", "bare-point": b"1.", "leading-point": b".5",
           "leading-zero": b"01", "true": b"true", "1e400": b"1e400",
           "nan": b"nan"}


@pytest.mark.parametrize("row", [PARENT_ROW, CHILD_ROW],
                         ids=["parent-half", "child-half"])
@pytest.mark.parametrize("cell", [*REFUSED.values(), None],
                         ids=[*REFUSED, "one-cell-short"])
def test_read_refuses_a_row_that_is_not_json_numbers(cell, row, tmp_path,
                                                     monkeypatch):
    # a cell that is not a JSON number, or a row short of a cell, in
    # either half: both reads raise ParseError naming the row
    def edit(lines):
        if cell is None:
            lines[row] = lines[row].rsplit(b",", 1)[0]
        else:
            _set_cell(4, cell)(lines, row)

    path, spec = _damaged_table(tmp_path, edit)
    serial, split = _serial_and_split_errors(path, spec, monkeypatch)
    assert split == serial
    i, j = divmod(row, 401)
    assert f"not a row of 8 numbers: '{i},{j}," in serial
    assert (cell or b"").decode() in serial


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
    levels, step = U.shape[1], csv_io._CSV_BLOCK // U.shape[2]
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
    assert 2 * spec.m * 65 * 257 >= csv_io._CSV_SPLIT
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
