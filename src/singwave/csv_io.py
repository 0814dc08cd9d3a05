"""solution.csv and eigen.csv: the writers, and a reader of solution.csv
that accepts only the writer's rows, in the writer's order."""

from __future__ import annotations

import array
import contextlib
import os
import re
import warnings
from itertools import repeat
from typing import List

import numpy as np
import orjson

from .errors import ParseError, ShapeError
from .solver import GridParams, ProblemSpec

# grid values per block of _write_nodes (_CSV_BLOCK // m nodes, which may
# start and end inside an i row); it holds the text of one block at a
# time, so its memory is flat in N and m, and in M apart from the j and t
# texts of the levels
_CSV_BLOCK = 4096
# grid values (2m per node) from which a forked process writes the second
# half of solution.csv's nodes and reads the second half of its bytes;
# below it the fork costs more (break-even ladders: BENCH_27.json to 29)
_CSV_SPLIT = 2 ** 16
# orjson's exponents that repr writes otherwise: a sign before a positive
# one, a zero before a negative one of one digit
_EXP_POSITIVE = re.compile(rb"e(?=\d)")
_EXP_ONE_DIGIT = re.compile(rb"e-(?=\d\b)")
# bytes per read of a solution table's body (_parse_bytes): reads of 8 to
# 64 KiB parse equally fast, and a smaller one holds fewer of a block's
# Python objects at once
_READ_BLOCK = 1 << 14
# every byte a solution table's body may hold: _CELL_BYTES (those of JSON
# numbers and blanks), the comma and line ends.  Deleting _CELL_BYTES from
# a block of CRLF rows of w >= 2 cells leaves w - 1 commas and CRLF a row,
# _parse_bytes's one check of such a block; any other block is checked
# line by line against _BODY_BYTES
_CELL_BYTES = b"0123456789+-.eE \t"
_BODY_BYTES = _CELL_BYTES + b",\r\n"


def _float_rows(block: np.ndarray) -> List[bytes]:
    """The text of each row of a float block: its cells as repr writes
    them, joined by commas.

    orjson formats the whole block with Ryu's shortest round-trip digits,
    which are repr's, and its exponents (e16, e-7) are rewritten as
    repr's (e+16, e-07).  orjson writes a decimal exponent of -5
    positionally (0.00001) and inf and nan as null, so a row with a cell
    of magnitude in [1e-5, 1e-4) or one that is not finite is formatted
    by repr instead.
    """
    text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
    if b"e" in text:
        text = _EXP_ONE_DIGIT.sub(b"e-0", _EXP_POSITIVE.sub(b"e+", text))
    rows = text[2:-2].split(b"],[")
    size = np.abs(block)
    odd = ((size >= 1e-5) & (size < 1e-4)) | ~np.isfinite(size)
    if odd.any():
        for r in np.flatnonzero(odd.any(axis=1)).tolist():
            rows[r] = ",".join(map(repr, block[r].tolist())).encode()
    return rows


def _solution_header(m: int) -> List[str]:
    """Column names of a solution table with m components."""
    return ["i", "j", "x", "t"] + [f"u{c}_{part}" for c in range(m)
                                   for part in ("re", "im")]


def _write_nodes(fh, values: np.ndarray, grid: GridParams, lo: int,
                 hi: int) -> None:
    """Write the rows of nodes lo to hi - 1 of a solution table to the
    binary file fh; values holds each node's real and imaginary parts
    interleaved, one row per node, and node i*(M + 1) + j is (i, j).

    _float_rows formats the value cells of a block.  The texts of j and
    t = j*k are formatted once per call, for all M + 1 levels, and those
    of i and x = i/N once per i row of a block.  A row's text does not
    depend on the block it falls in, so a table written in any split of
    its node range has the same bytes.
    """
    N, M, m = grid.N, grid.M, values.shape[1] // 2
    step = max(1, _CSV_BLOCK // m)
    # fixed-width bytes, not lists of objects, so that a level holds about
    # 30 bytes; a repr has at most 24 characters
    js = np.fromiter((f"{j},".encode() for j in range(M + 1)),
                     dtype=f"S{len(str(M)) + 1}", count=M + 1)
    ts = np.fromiter((f"{j * grid.k!r},".encode() for j in range(M + 1)),
                     dtype="S25", count=M + 1)
    for start in range(lo, hi, step):
        stop = min(start + step, hi)
        # six pieces a row: i, j, x, t, the values and the line end
        parts = [b"\r\n"] * (6 * (stop - start))
        parts[4::6] = _float_rows(values[start:stop])
        for i in range(start // (M + 1), (stop - 1) // (M + 1) + 1):
            # nodes a to b of the block lie on row i, at levels j0 to j1
            a = max(start, i * (M + 1))
            b = min(stop, (i + 1) * (M + 1))
            j0, j1 = a - i * (M + 1), b - i * (M + 1)
            first, end = 6 * (a - start), 6 * (b - start)
            parts[first:end:6] = [f"{i},".encode()] * (b - a)
            parts[first + 1:end:6] = js[j0:j1].tolist()
            parts[first + 2:end:6] = [f"{i / N!r},".encode()] * (b - a)
            parts[first + 3:end:6] = ts[j0:j1].tolist()
        fh.write(b"".join(parts))


def _two_processes() -> bool:
    """Whether this process can fork a second one that runs beside it."""
    return (hasattr(os, "fork") and hasattr(os, "memfd_create")
            and len(os.sched_getaffinity(0)) >= 2)


class _NoChild(OSError):
    """_in_two could not start its child; nothing has run."""


@contextlib.contextmanager
def _in_two(child, parent):
    """Run child(out) in a forked process beside parent() in this one;
    out is a binary file on part, a file with no name (a memfd).  The
    with block gets parent()'s result and part, closed when it ends.

    The child ends with os._exit (0 when child returned) and is reaped
    before the block; an exception in parent(), KeyboardInterrupt too,
    kills it first.  A child that raises writes the exception's errno and
    text over part and exits 1, and OSError is raised with them; any
    other status but 0 raises OSError naming it.  A
    child runs only CSV code (no BLAS, no lock another thread may hold),
    so os.fork's DeprecationWarning is ignored.  When os.memfd_create or
    os.fork raises OSError, no child is started and _NoChild is raised."""
    part = None
    try:
        try:
            part = os.memfd_create("singwave-part")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError as exc:
            raise _NoChild(*exc.args) from exc
        if pid == 0:
            status = 1
            try:
                with open(part, "wb", closefd=False) as out:
                    child(out)
                status = 0
            except BaseException as exc:
                code = getattr(exc, "errno", None)
                note = f"{code} {exc.strerror}" if code else f"- {exc!r}"
                os.ftruncate(part, 0)
                os.pwrite(part, note.encode(), 0)
            finally:
                os._exit(status)
        try:
            result = parent()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        except BaseException:
            import signal  # here, so that importing this module loads no more
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        if status == 1:  # the child's exception, as it wrote it
            code, _, text = os.pread(part, 1 << 12, 0).decode(
                errors="replace").partition(" ")
            raise OSError(int(code), text) if code.isdigit() else OSError(text)
        if status != 0:
            raise OSError(f"the forked process exited with {status}")
        yield result, part
    finally:
        if part is not None:
            os.close(part)


def write_solution_csv(U: np.ndarray, grid: GridParams, path: str) -> None:
    """Grid values, one row per (i, j), i outer; shortest-round-trip
    (repr) decimal text and CRLF line ends.

    _write_nodes formats the rows.  A grid of at least _CSV_SPLIT float
    values is written by two processes where _two_processes allows and
    the child starts: a forked child formats the second half of the nodes
    into a memfd, which sendfile appends to the first half; the bytes are
    those of one.
    """
    # real and imaginary parts interleaved, one row per node
    values = np.ascontiguousarray(U, dtype=complex).view(float).reshape(
        -1, 2 * U.shape[2])
    n, half = len(values), len(values) // 2
    with open(path, "wb") as fh:
        fh.write((",".join(_solution_header(U.shape[2])) + "\r\n").encode())
        if values.size >= _CSV_SPLIT and _two_processes():
            with contextlib.suppress(_NoChild), _in_two(
                    lambda out: _write_nodes(out, values, grid, half, n),
                    lambda: _write_nodes(fh, values, grid, 0, half)
                    ) as (_, part):
                fh.flush()
                offset = 0
                while sent := os.sendfile(fh.fileno(), part, offset, 1 << 20):
                    offset += sent
                return
        _write_nodes(fh, values, grid, 0, n)


def _row_error(lines: List[bytes], width: int) -> ValueError:
    """The error naming the first of lines that is not width JSON numbers
    split by commas."""
    def is_row(line):
        try:
            return (not line.translate(None, _BODY_BYTES)
                    and len(orjson.loads(b"[" + line + b"]")) == width)
        except orjson.JSONDecodeError:
            return False
    bad = next((line for line in lines if not is_row(line)), lines[0])
    return ValueError(f"not a row of {width} numbers: "
                      f"{bad.decode(errors='replace')[:80]!r}")


def _parse_bytes(fd: int, lo: int, hi: int) -> np.ndarray:
    """The float rows of bytes lo to hi - 1 of file fd: lines of cells
    that are JSON numbers split by commas, as many in each line as in the
    first, with CRLF, LF or CR line ends; a blank line is skipped.

    The bytes are read about _READ_BLOCK at a time, each read cut at its
    last line end, and each block is one JSON array, which one
    orjson.loads parses and one fromlist appends to the table, an
    array.array of doubles.  A block of CRLF rows of w >= 2 cells (w of
    the first row, in an earlier block or this one) is checked by one
    translate, which deletes _CELL_BYTES and must leave w - 1 commas and
    CRLF a row; its CRs become the commas between rows.  Every other
    block (an LF or CR line end, a blank line, a cut between CR and LF, a
    last line with no end, another byte, a row of another width, or a
    width of 1, whose rows have a blank line's skeleton) is checked line
    by line and its lines joined by commas.  Raises ValueError naming
    the first line of a block that is not such a row.
    """
    table = array.array("d")
    rows = width = 0
    while lo < hi:
        size = _READ_BLOCK
        while True:  # a line longer than a read doubles the read
            block = os.pread(fd, min(size, hi - lo), lo)
            if len(block) < size:  # the range's end, or the file's
                hi = lo + len(block)
                break
            block = block[:max(block.rfind(b"\n"), block.rfind(b"\r")) + 1]
            if block:
                break
            size *= 2
        lo += len(block)
        skeleton = block.translate(None, _CELL_BYTES)
        w = width or skeleton.find(b"\r\n") + 1
        n = len(skeleton) // (w + 1)
        # w >= 2, as a width-1 row and a blank line have the same skeleton;
        # an LF end, as a number after the last CRLF (a range's last line
        # with no line end) leaves the skeleton as it is
        if (w >= 2 and block.endswith(b"\n")
                and skeleton == (b"," * (w - 1) + b"\r\n") * n):
            try:
                # each LF a blank; replace is 3.5x faster than translate,
                # and one copy beside it, not three, keeps demo-large's
                # peak RSS at the per-line path's
                cells = orjson.loads(b"[%b]" % memoryview(
                    block.replace(b"\r", b","))[:-2])
            except orjson.JSONDecodeError:
                raise _row_error(block.splitlines(), w) from None
            table.fromlist(cells)
            rows, width = rows + n, w
            continue
        lines = block.splitlines()
        if b"" in lines:
            lines = list(filter(None, lines))
        if not lines:
            continue
        width = width or lines[0].count(b",") + 1
        if (block.translate(None, _BODY_BYTES) or set(
                map(bytes.count, lines, repeat(b","))) != {width - 1}):
            raise _row_error(lines, width)
        try:
            cells = orjson.loads(b"[" + b",".join(lines) + b"]")
        except orjson.JSONDecodeError:
            raise _row_error(lines, width) from None
        table.fromlist(cells)
        rows += len(lines)
    return np.frombuffer(table).reshape(rows, width)


def _check_nodes(path: str, rows: np.ndarray, first: int, grid: GridParams,
                 m: int) -> None:
    """Raise ParseError unless rows are the writer's rows of grid's nodes
    first, first + 1, ... (none past its last) with m components: 4 + 2m
    cells a row (finite, as _parse_bytes reads them), the node's i and j,
    and x and t within 1e-12 * max(1, T) of i/N and j*k."""
    if rows.shape[1] != 4 + 2 * m:
        raise ParseError(f"{path}: expected rows of {4 + 2 * m} numbers")
    i, j = np.divmod(np.arange(first, first + len(rows)), grid.M + 1)
    if not ((rows[:, 0] == i).all() and (rows[:, 1] == j).all()
            and first + len(rows) <= (grid.N + 1) * (grid.M + 1)):
        raise ParseError(f"{path}: rows out of the writer's node order")
    tol = 1e-12 * max(1.0, grid.T)
    if not ((np.abs(rows[:, 2] - i / grid.N) <= tol).all()
            and (np.abs(rows[:, 3] - j * grid.k) <= tol).all()):
        raise ParseError(f"{path}: an x or t cell is not i/N or j*k")


def _read_halves(path: str, fd: int, start: int,
                 spec: ProblemSpec) -> np.ndarray:
    """spec's grid from the body of the table in file fd, from byte start
    on, cut at the first line start at or after its middle.  This process
    parses the first range and a forked one the second; each keeps its
    rows only as the writer's first or last nodes (_check_nodes), and the
    child hands back only its value columns."""
    end, grid, m = os.fstat(fd).st_size, spec.grid, spec.m
    nodes, mid = (grid.N + 1) * (grid.M + 1), start + (end - start) // 2
    # a CRLF, LF or CR line end, from the byte before the middle on
    found = re.search(rb"\r\n?|\n", os.pread(fd, 1 << 16, mid - 1))
    if found is None:
        raise ValueError("no line end after the middle")
    cut = mid - 1 + found.end()

    def own(lo, hi, last):
        rows = _parse_bytes(fd, lo, hi)
        _check_nodes(path, rows, nodes - len(rows) if last else 0, grid, m)
        return rows[:, 4:]

    with _in_two(lambda out: out.write(own(cut, end, True).copy()),
                 lambda: own(start, cut, False)) as (head, part):
        values = np.empty((nodes, 2 * m))
        values[:len(head)] = head
        if os.fstat(part).st_size != values[len(head):].nbytes:
            raise ValueError("the halves do not meet")
        with open(part, "rb", closefd=False) as fh:
            fh.seek(0)  # the child's writes moved the offset both share
            fh.readinto(values[len(head):])
    # viewing the float pairs keeps the sign of a -0.0 real part
    return values.view(complex).reshape(grid.N + 1, grid.M + 1, m)


def read_solution_csv(path: str, spec: ProblemSpec) -> np.ndarray:
    """Inverse of write_solution_csv; returns the problem's (N+1, M+1, m)
    grid.

    A table of at least _CSV_SPLIT values (2m per node of spec.grid) is
    read by two processes where _two_processes allows (_read_halves):
    its body is split by bytes, and each process checks its own rows.
    Any other table, and any failure, is parsed again by one process, so
    the grid and errors are those of one.

    Raises ParseError on a header that is not UTF-8 or not the writer's,
    a body that _parse_bytes refuses (a cell that is not a JSON number,
    a row of another width), or rows other than the writer's of the
    problem's nodes, in its order, with x = i/N and t = j*k beyond
    round-off; ShapeError on the writer's table of a grid of another
    shape.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:  # readline decodes a whole buffer, not only the header
            line = fh.readline()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        header = line.rstrip("\r\n").split(",")
        m = (len(header) - 4) // 2
        if m < 1 or header != _solution_header(m):
            raise ParseError(f"{path}: not a solution table")
        nodes = (spec.grid.N + 1) * (spec.grid.M + 1)
        if m == spec.m and 2 * m * nodes >= _CSV_SPLIT and _two_processes():
            # the header is ASCII: its characters are its bytes
            with contextlib.suppress(ValueError, OSError):
                return _read_halves(path, fh.fileno(), len(line), spec)
        try:
            table = _parse_bytes(fh.fileno(), len(line),
                                 os.fstat(fh.fileno()).st_size)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return _solution_grid(path, table, m, spec)


def _solution_grid(path: str, table: np.ndarray, m: int,
                   spec: ProblemSpec) -> np.ndarray:
    """read_solution_csv's grid of the rows of a table of m components,
    read by one process."""
    shape = (spec.grid.N + 1, spec.grid.M + 1, spec.m)
    if len(table) and table.shape[1] == 4 + 2 * m:
        # the writer's table of an a x b grid ends on node (a - 1, b - 1)
        a, b = (table[-1, :2] + 1).tolist()
        if a * b == len(table) and (a, b, m) != shape:
            raise ShapeError(f"solution grid {(int(a), int(b), m)} does "
                             f"not match problem {shape}")
    _check_nodes(path, table, 0, spec.grid, m)
    if len(table) < shape[0] * shape[1]:
        raise ParseError(f"{path}: missing grid rows")
    # viewing the float pairs keeps the sign of a -0.0 real part
    return np.ascontiguousarray(table[:, 4:]).view(complex).reshape(shape)


def write_eigen_csv(eigenpairs: np.recarray, path: str) -> None:
    """Eigenvalue table, one row per mode; repr decimal text."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("l,lambda\r\n")
        fh.write("".join([f"{l},{lam!r}\r\n" for l, lam in enumerate(
            eigenpairs.lam.tolist(), start=1)]))
