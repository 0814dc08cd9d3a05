"""Batch front door: JSON problem files in, CSV/report files out.

Subcommands: solve (full pipeline), verify (replay the residual oracle on
a saved solution), eigen (spatial eigenvalue table only), example (emit
the shipped demo problem file).  Exit codes: 0 success, 2 model
rejection, 3 input/parse error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import re
import sys
import warnings
from typing import Dict, List, Optional, Sequence

import numpy as np
import orjson

from .errors import (
    NumericalFailure,
    ParseError,
    ShapeError,
    SingwaveError,
)
from .matrix_core import is_number
from .solver import (
    MATRIX_KEYS,
    DiscreteSolution,
    GridParams,
    ProblemSpec,
    Tolerances,
    solve_problem,
)
from .sturm_liouville import solve_psd
from .verify import ResidualReport, residual_report

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
# keys every problem file holds; "tolerances" is the one optional key
_REQUIRED_KEYS = ("m", *MATRIX_KEYS, "alpha", "beta", "N", "k", "T", "F", "G")


def _entry_to_complex(value, key: str) -> complex:
    """A cell of the file, a number or an [re, im] pair, as a complex."""
    try:
        if is_number(value):
            return complex(value)
        if (isinstance(value, list) and len(value) == 2
                and all(is_number(p) for p in value)):
            return complex(value[0], value[1])
    except OverflowError:  # an integer too large for a float
        pass
    raise ParseError(
        f'"{key}": entries must be numbers or [re, im] pairs, got {value!r}')


def _parse_table(doc: dict, key: str) -> list:
    """A table of the file, a list of rows of cells, with each cell read
    by _entry_to_complex; its shape is ProblemSpec's to check."""
    rows = doc[key]
    if not (isinstance(rows, list)
            and all(isinstance(row, list) for row in rows)):
        raise ParseError(f'"{key}" must be a list of rows, got {rows!r}')
    # a row of plain numbers needs no reading; ProblemSpec converts it
    return [row if set(map(type, row)) <= {int, float}
            else [_entry_to_complex(cell, key) for cell in row]
            for row in rows]


def parse_problem(path: str) -> ProblemSpec:
    """Read a problem file: check the document's structure and read its
    cells; the ProblemSpec it builds validates every value."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: invalid UTF-8 JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    missing = [key for key in _REQUIRED_KEYS if key not in doc]
    if missing:
        raise ParseError(f"{path}: missing keys {missing}")
    unknown = [key for key in doc
               if key not in _REQUIRED_KEYS and key != "tolerances"]
    if unknown:
        raise ParseError(f"{path}: unknown keys {unknown}")
    tdoc = doc.get("tolerances")
    tdoc = {} if tdoc is None else tdoc  # null reads as absent
    known = [f.name for f in dataclasses.fields(Tolerances)]
    if not (isinstance(tdoc, dict) and set(tdoc) <= set(known)):
        raise ParseError(f'"tolerances" must be an object with keys '
                         f'from {known}, got {tdoc!r}')
    return ProblemSpec(
        m=doc["m"], alpha=doc["alpha"], beta=doc["beta"],
        F=_parse_table(doc, "F"), Gv=_parse_table(doc, "G"),
        grid=GridParams.create(doc["N"], doc["k"], doc["T"]),
        tolerances=Tolerances(**tdoc),
        **{key: _parse_table(doc, key) for key in MATRIX_KEYS})


def _pair_rows(table: np.ndarray) -> list:
    """A complex table as rows of [re, im] pairs of floats."""
    return np.stack([table.real, table.imag], axis=-1).tolist()


def serialize_problem(spec: ProblemSpec) -> dict:
    """Problem file document for a spec (entries always [re, im])."""
    doc: Dict[str, object] = {"m": spec.m}
    doc.update((key, _pair_rows(getattr(spec, key))) for key in MATRIX_KEYS)
    doc.update(alpha=spec.alpha, beta=spec.beta, N=spec.grid.N,
               k=spec.grid.k, T=spec.grid.T, F=_pair_rows(spec.F),
               G=_pair_rows(spec.Gv),
               tolerances=dataclasses.asdict(spec.tolerances))
    return doc


def write_problem(spec: ProblemSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(serialize_problem(spec), fh, indent=1)
        fh.write("\n")


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


def _loadtxt(source) -> np.ndarray:
    """The float rows of a solution table's open file or path."""
    with warnings.catch_warnings():
        # an empty body is reported by the checks, not warned about
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(source, delimiter=",", comments=None, ndmin=2,
                          encoding="utf-8")


def _parse_bytes(fd: int, lo: int, hi: int) -> np.ndarray:
    """The float rows of bytes lo to hi - 1 of file fd, copied in the
    kernel into a memfd, whose path np.loadtxt reads in C chunks."""
    text = os.memfd_create("singwave-text")
    try:
        while lo < hi and (sent := os.sendfile(text, fd, lo, hi - lo)):
            lo += sent
        return _loadtxt(f"/proc/self/fd/{text}")
    finally:
        os.close(text)


def _on_grid(table: np.ndarray, i, j, grid: GridParams) -> bool:
    """Whether the x and t cells of table's rows are i/N and j*k within
    1e-12 * max(1, T); a NaN is not."""
    tol = 1e-12 * max(1.0, grid.T)
    return bool((np.abs(table[:, 2] - i / grid.N) <= tol).all()
                and (np.abs(table[:, 3] - j * grid.k) <= tol).all())


def _read_halves(fd: int, start: int, spec: ProblemSpec) -> np.ndarray:
    """spec's grid from the body of the table in file fd, from byte start
    on, cut at the first line start at or after its middle.  This process
    parses the first range and a forked one the second; each keeps its
    rows only as the writer's first or last nodes, in order, finite and
    on the grid, and the child hands back only its value columns."""
    end, grid, m = os.fstat(fd).st_size, spec.grid, spec.m
    nodes, mid = (grid.N + 1) * (grid.M + 1), start + (end - start) // 2
    # a CRLF, LF or CR line end, from the byte before the middle on
    found = re.search(rb"\r\n?|\n", os.pread(fd, 1 << 16, mid - 1))
    if found is None:
        raise ValueError("no line end after the middle")
    cut = mid - 1 + found.end()

    def own(lo, hi, last):
        rows = _parse_bytes(fd, lo, hi)
        first = nodes - len(rows) if last else 0
        i, j = np.divmod(np.arange(first, first + len(rows)), grid.M + 1)
        if not (rows.shape[1] == 4 + 2 * m and (rows[:, 0] == i).all()
                and (rows[:, 1] == j).all() and _on_grid(rows, i, j, grid)
                and np.isfinite(rows[:, 4:]).all()):
            raise ValueError("not the writer's rows")
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
    its body is split by bytes, and each process accepts its rows only
    as the writer's, in order.  Any other table, and any failure, is
    parsed again by one process, so the grid and errors are those of one.

    Raises ParseError on text that is not UTF-8, a bad header, a malformed
    or non-finite cell, an index that is not a non-negative integer,
    repeated or missing rows, or an x cell other than i/N or a t cell
    other than j*k beyond round-off; ShapeError on a grid of another
    shape than the problem's.
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
                return _read_halves(fh.fileno(), len(line), spec)
        try:
            table = _loadtxt(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    return _solution_grid(path, table, m, spec)


def _solution_grid(path: str, table: np.ndarray, m: int,
                   spec: ProblemSpec) -> np.ndarray:
    """read_solution_csv's grid of the rows of a table of m components."""
    if not np.isfinite(table).all():
        raise ParseError(f"{path}: non-finite cell")
    rows = len(table)
    if rows == 0 or table.shape[1] != 4 + 2 * m:
        raise ParseError(f"{path}: expected rows of {4 + 2 * m} numbers")
    ij = table[:, :2]
    # every index of a complete grid is below its number of rows
    if ((ij < 0) | (ij >= rows) | (ij != np.floor(ij))).any():
        raise ParseError(f"{path}: grid indices must be integers "
                         f"from 0 to {rows - 1}")
    i, j = ij.T.astype(np.int64)
    nodes = (int(i.max()) + 1, int(j.max()) + 1)
    flat = i * nodes[1] + j
    ordered = np.sort(flat)
    if (ordered[1:] == ordered[:-1]).any():
        raise ParseError(f"{path}: repeated grid rows")
    if rows != nodes[0] * nodes[1]:
        raise ParseError(f"{path}: missing grid rows")
    grid = spec.grid
    expected = (grid.N + 1, grid.M + 1, spec.m)
    if (*nodes, m) != expected:
        raise ShapeError(f"solution grid {(*nodes, m)} does not match "
                         f"problem {expected}")
    if not _on_grid(table, i, j, grid):
        raise ParseError(f"{path}: an x or t cell is not i/N or j*k")
    values = np.empty((rows, 2 * m))
    values[flat] = table[:, 4:]
    # viewing the float pairs keeps the sign of a -0.0 real part
    return values.view(complex).reshape(*nodes, m)


def write_eigen_csv(eigenpairs: np.recarray, path: str) -> None:
    """Eigenvalue table, one row per mode; repr decimal text."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("l,lambda\r\n")
        fh.write("".join([f"{l},{lam!r}\r\n" for l, lam in enumerate(
            eigenpairs.lam.tolist(), start=1)]))


def _fmt(value: float) -> str:
    return f"{value:.6e}"


def _residual_lines(rep: ResidualReport) -> List[str]:
    """The residual lines that report.txt and verify both print."""
    return ([f"{name}={_fmt(getattr(rep, name))}" for name in rep.DEFECTS]
            + [f"normalizer={rep.normalizer!r}"])


def _residual_gate(U: np.ndarray, spec: ProblemSpec
                   ) -> tuple[ResidualReport, Optional[str]]:
    """The residual report of grid U and, when its worst residual exceeds
    the problem's residual tolerance, the failure message (a NaN residual
    fails).  solve and verify both decide by it, so that ACCEPTED implies
    a passing verify."""
    rep = residual_report(U, spec)
    tol = spec.tolerances.residual
    if rep.worst <= tol:
        return rep, None
    return rep, f"worst residual {_fmt(rep.worst)} exceeds {tol:g}"


def build_report(spec: ProblemSpec, sol: DiscreteSolution,
                 residuals: Optional[ResidualReport],
                 error: Optional[SingwaveError]) -> str:
    """Human-readable run summary; sections appear as far as the run got."""
    lines: List[str] = []
    grid = spec.grid
    lines.append("== grid ==")
    lines.append(f"N={grid.N} h={1.0 / grid.N!r} k={grid.k!r} "
                 f"T={grid.T!r} M={grid.M} r={grid.r!r}")
    lines.append(f"m={spec.m}")
    if sol.eigenpairs is not None:
        lines.append("== spatial eigenvalues ==")
        lines.append(" ".join(map(_fmt, sol.eigenpairs.lam.tolist())))
    if sol.pencil is not None:
        pd = sol.pencil
        lines.append("== pencil ==")
        lines.append(f"gamma={pd.gamma}")
        # a 0 for each inactive or nilpotent direction, then the active d
        d = np.diagonal(pd.core)[pd.active]
        spectrum = np.concatenate([np.zeros(spec.m - d.size),
                                   d[np.argsort(np.abs(d), kind="stable")]])
        lines.append("reduced spectrum: "
                     + " ".join(str(z) for z in spectrum))
        lines.append(f"nilpotency index={pd.index_k} "
                     f"core_active={bool(pd.active.any())}")
    if sol.boundary is not None:
        bm = sol.boundary
        lines.append("== endpoint matrix ==")
        lines.append(f"rank={bm.rank} of m={spec.m} "
                     f"(kernel dimension {bm.kernel.shape[1]})")
    if sol.gates is not None:
        lines.append("== admissibility ==")
        lines.extend(f"{gate.name}={gate.passed} (defect {_fmt(gate.defect)})"
                     for gate in sol.gates)
    if sol.modes is not None:
        lines.append("== modes ==")
        lines.append("l rho residual")
        rhos = sol.propagators.rho.real.tolist()
        for l, (rho, res) in enumerate(zip(rhos, sol.modes.residual.tolist()),
                                       start=1):
            lines.append(f"{l} {rho!r} {_fmt(res)}")
    if residuals is not None:
        lines.append("== residuals ==")
        lines.extend(_residual_lines(residuals))
    if sol.stability is not None:
        st = sol.stability
        lines.append("== stability ==")
        lines.append(f"max|p|={_fmt(st.max_root_modulus)} "
                     f"root_margin={_fmt(st.root_margin)} "
                     f"power_bound_ok={st.power_bound_ok}")
        lines.append(f"growth_rate={_fmt(st.growth_rate)} "
                     f"sup_norm={_fmt(st.sup_norm)}")
        lines.append("l rho rate")
        rhos = sol.propagators.rho.real.tolist()
        for l, (rho, rate) in enumerate(zip(rhos, st.rate.tolist()),
                                        start=1):
            lines.append(f"{l} {rho!r} {_fmt(rate)}")
    lines.append("== result ==")
    if error is None:
        lines.append("ACCEPTED")
    else:
        lines.append(f"REJECTED: {error.condition}")
        lines.append(str(error))
    return "\n".join(lines) + "\n"


def run_solve(spec: ProblemSpec, out_dir: str, quiet: bool = False) -> int:
    """Solve and write solution.csv, eigen.csv, report.txt into out_dir.

    The report is written even when the problem is rejected, naming the
    rejection condition.  A grid that fails the residual gate, which
    verify applies too, is a NumericalFailure (residual-gate) and writes
    no solution.csv.  A solve that writes none removes one left by an
    earlier run, which verify would otherwise read as this run's grid,
    and a write that fails removes the part it wrote and an earlier
    run's report.txt before the error propagates.
    """
    os.makedirs(out_dir, exist_ok=True)
    sol = DiscreteSolution()
    residuals: Optional[ResidualReport] = None
    error: Optional[SingwaveError] = None
    status = 0
    try:
        solve_problem(spec, sol)
        residuals, failure = _residual_gate(sol.U, spec)
        if failure:
            raise NumericalFailure(failure, condition="residual-gate")
    except SingwaveError as exc:
        error = exc
        status = exc.exit_code
    if sol.eigenpairs is not None:
        write_eigen_csv(sol.eigenpairs, os.path.join(out_dir, "eigen.csv"))
    solution = os.path.join(out_dir, "solution.csv")
    report_path = os.path.join(out_dir, "report.txt")
    written = False
    try:
        if error is None:
            write_solution_csv(sol.U, spec.grid, solution)
            written = True
    finally:
        if not written:
            for stale in (solution, report_path):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(stale)
    report = build_report(spec, sol, residuals, error)
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report)
    if not quiet:
        sys.stdout.write(report)
    return status


def run_verify(problem_path: str, solution_path: str,
               quiet: bool = False) -> int:
    """Replay the residual oracle on a saved solution; exit 2 when it
    fails the residual gate at the problem's residual tolerance."""
    spec = parse_problem(problem_path)
    rep, failure = _residual_gate(read_solution_csv(solution_path, spec),
                                  spec)
    if not quiet:
        print("\n".join(_residual_lines(rep)))
        print(f"FAIL: {failure}" if failure else "OK")
    return 2 if failure else 0


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose usage errors raise ParseError, so they exit 3 like
    every other input error (argparse itself would exit 2, the code of a
    model rejection); subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def _make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused."""
    parser = _ArgumentParser(
        prog="singwave",
        description="Solve coupled two-level difference systems with a "
                    "singular time-coefficient matrix.")
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--input": dict(required=True, help="problem file (JSON)"),
        "--solution": dict(required=True, help="solution.csv to check"),
        "--out-dir": dict(default=".", help="directory for output files"),
        "--quiet": dict(action="store_true", help="suppress normal output"),
    }
    for command, text, flags in [
            ("solve", "run the full pipeline",
             ("--input", "--out-dir", "--quiet")),
            ("verify", "check a saved solution's residuals",
             ("--input", "--solution", "--quiet")),
            ("eigen", "write the spatial eigenvalue table",
             ("--input", "--out-dir", "--quiet")),
            ("example", "write the shipped demo problem file",
             ("--out-dir", "--quiet"))]:
        p = sub.add_parser(command, help=text)
        for flag in flags:
            p.add_argument(flag, **options[flag])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _make_parser().parse_args(argv)
        if args.command == "solve":
            return run_solve(parse_problem(args.input), args.out_dir,
                             args.quiet)
        if args.command == "verify":
            return run_verify(args.input, args.solution, args.quiet)
        if args.command == "eigen":
            spec = parse_problem(args.input)
            os.makedirs(args.out_dir, exist_ok=True)
            path = os.path.join(args.out_dir, "eigen.csv")
            write_eigen_csv(solve_psd(spec.sl_problem()), path)
            if not args.quiet:
                print(path)
            return 0
        if args.command == "example":
            from .fixtures import demo_problem
            spec = demo_problem()
            os.makedirs(args.out_dir, exist_ok=True)
            path = os.path.join(args.out_dir, "problem.json")
            write_problem(spec, path)
            if not args.quiet:
                print(path)
            return 0
        raise AssertionError(f"unhandled command {args.command}")
    except SingwaveError as exc:
        kind = {2: "rejected", 3: "input error"}.get(exc.exit_code,
                                                     "numerical failure")
        print(f"{kind} [{exc.condition}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
