"""Batch front door: JSON problem files in, CSV/report files out.

Subcommands: solve (full pipeline), verify (replay the residual oracle on
a saved solution), eigen (spatial eigenvalue table only), example (emit
the shipped demo problem file).  Exit codes: 0 success, 2 model
rejection, 3 input/parse error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import warnings
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import (
    InputError,
    ModelRejection,
    NumericalFailure,
    ParseError,
    ShapeError,
    SingwaveError,
)
from .fixtures import demo_problem
from .solver import (
    MATRIX_KEYS,
    GridParams,
    ProblemSpec,
    Tolerances,
    is_number,
    solve_problem,
)
from .sturm_liouville import solve_psd
from .verify import ResidualReport, residual_report

# nodes per block written by write_solution_csv
_CSV_BLOCK = 4096


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
    return [row if all(map(is_number, row))
            else [_entry_to_complex(cell, key) for cell in row]
            for row in rows]


def parse_problem(path: str) -> ProblemSpec:
    """Read a problem file: check the document's structure and read its
    cells; the ProblemSpec it builds validates every value."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    missing = [key for key in
               ("m", *MATRIX_KEYS, "alpha", "beta", "N", "k", "T", "F", "G")
               if key not in doc]
    if missing:
        raise ParseError(f"{path}: missing keys {missing}")
    # an optional key set to null reads as absent
    gamma, tdoc = doc.get("gamma"), doc.get("tolerances")
    optional = {"rho_override": doc.get("rho_override")}
    if gamma is not None:
        optional["gamma"] = _entry_to_complex(gamma, "gamma")
    if tdoc is not None:
        known = [f.name for f in dataclasses.fields(Tolerances)]
        if not (isinstance(tdoc, dict) and set(tdoc) <= set(known)):
            raise ParseError(f'"tolerances" must be an object with keys '
                             f'from {known}, got {tdoc!r}')
        optional["tolerances"] = Tolerances(**tdoc)
    return ProblemSpec(
        m=doc["m"], alpha=doc["alpha"], beta=doc["beta"],
        F=_parse_table(doc, "F"), Gv=_parse_table(doc, "G"),
        grid=GridParams.create(doc["N"], doc["k"], doc["T"]),
        **{key: _parse_table(doc, key) for key in MATRIX_KEYS}, **optional)


def _complex_pair(z: complex) -> List[float]:
    return [float(np.real(z)), float(np.imag(z))]


def serialize_problem(spec: ProblemSpec) -> dict:
    """Problem file document for a spec (entries always [re, im])."""
    doc: Dict[str, object] = {"m": spec.m}
    for key in MATRIX_KEYS:
        M = getattr(spec, key)
        doc[key] = [[_complex_pair(M[i, j]) for j in range(spec.m)]
                    for i in range(spec.m)]
    doc["alpha"] = spec.alpha
    doc["beta"] = spec.beta
    doc["N"] = spec.grid.N
    doc["k"] = spec.grid.k
    doc["T"] = spec.grid.T
    doc["F"] = [[_complex_pair(z) for z in row] for row in spec.F]
    doc["G"] = [[_complex_pair(z) for z in row] for row in spec.Gv]
    if spec.gamma is not None:
        doc["gamma"] = _complex_pair(spec.gamma)
    if spec.rho_override is not None:
        doc["rho_override"] = spec.rho_override
    doc["tolerances"] = {"rank": spec.tolerances.rank,
                         "residual": spec.tolerances.residual,
                         "consistency": spec.tolerances.consistency}
    return doc


def write_problem(spec: ProblemSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(serialize_problem(spec), fh, indent=1)
        fh.write("\n")


def write_solution_csv(U: np.ndarray, grid: GridParams, path: str) -> None:
    """Grid values, one row per (i, j), i outer; shortest-round-trip
    decimal text."""
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
        # whole blocks of rows, so the Python floats held at once stay
        # bounded; csv writes each Python float as its repr
        for start in range(0, len(values), _CSV_BLOCK):
            block = values[start:start + _CSV_BLOCK]
            i, j = np.divmod(np.arange(start, start + len(block)), M + 1)
            writer.writerows(zip(i.tolist(), j.tolist(), (i / N).tolist(),
                                 (j * grid.k).tolist(), *block.T.tolist()))


def read_solution_csv(path: str) -> np.ndarray:
    """Inverse of write_solution_csv; returns the (N+1, M+1, m) grid.

    Raises ParseError on a bad header, a malformed or non-finite cell, an
    index that is not a non-negative integer, or repeated or missing rows.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        m, rem = divmod(len(header) - 4, 2)
        if header[:4] != ["i", "j", "x", "t"] or m < 1 or rem:
            raise ParseError(f"{path}: not a solution table")
        with warnings.catch_warnings():
            # an empty body is reported below, not warned about
            warnings.simplefilter("ignore", UserWarning)
            try:
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}") from exc
    if not np.isfinite(table).all():
        raise ParseError(f"{path}: non-finite cell")
    rows = len(table)
    if rows == 0 or table.shape[1] != len(header):
        raise ParseError(f"{path}: expected rows of {len(header)} numbers")
    ij = table[:, :2]
    # every index of a complete grid is below its number of rows
    if ((ij < 0) | (ij >= rows) | (ij != np.floor(ij))).any():
        raise ParseError(f"{path}: grid indices must be integers "
                         f"from 0 to {rows - 1}")
    i, j = ij.T.astype(np.int64)
    flat = i * (j.max() + 1) + j
    if np.unique(flat).size != rows:
        raise ParseError(f"{path}: repeated grid rows")
    if rows != (i.max() + 1) * (j.max() + 1):
        raise ParseError(f"{path}: missing grid rows")
    values = np.empty((rows, 2 * m))
    values[flat] = table[:, 4:]
    # viewing the float pairs keeps the sign of a -0.0 real part
    return values.view(complex).reshape(i.max() + 1, j.max() + 1, m)


def write_eigen_csv(eigenpairs: np.recarray, path: str) -> None:
    """Eigenvalue table, one row per mode; repr decimal text."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["l", "lambda"])
        writer.writerows(enumerate(eigenpairs.lam.tolist(), start=1))


def _fmt(value: float) -> str:
    return f"{value:.6e}"


def build_report(spec: ProblemSpec, trace: dict,
                 residuals: Optional[ResidualReport],
                 error: Optional[SingwaveError]) -> str:
    """Human-readable run summary; sections appear as far as the run got."""
    lines: List[str] = []
    grid = spec.grid
    lines.append("== grid ==")
    lines.append(f"N={grid.N} h={1.0 / grid.N!r} k={grid.k!r} "
                 f"T={grid.T!r} M={grid.M} r={grid.r!r}")
    lines.append(f"m={spec.m}")
    if "eigenpairs" in trace:
        lines.append("== spatial eigenvalues ==")
        lines.append(" ".join(map(_fmt, trace["eigenpairs"].lam.tolist())))
    if "pencil" in trace:
        pd = trace["pencil"]
        lines.append("== pencil ==")
        lines.append(f"gamma={pd.gamma}")
        lines.append("reduced spectrum: "
                     + " ".join(str(z) for z in pd.spectrum_reduced))
        lines.append(f"nilpotency index={pd.index_k} "
                     f"core_active={pd.core_active}")
    if "boundary" in trace:
        bm = trace["boundary"]
        lines.append("== endpoint matrix ==")
        lines.append(f"rank={bm.rank} of m={spec.m} "
                     f"(kernel dimension {bm.kernel.shape[1]})")
    if "consistency" in trace:
        rep = trace["consistency"]
        lines.append("== admissibility ==")
        lines.append(f"projector_fixes_data={rep.projector_fixes_data} "
                     f"(defect {_fmt(rep.projector_defect)})")
        lines.append(f"data_in_kernel={rep.data_in_kernel} "
                     f"(defect {_fmt(rep.kernel_defect)})")
        lines.append(f"kernel_invariant={rep.kernel_invariant} "
                     f"(defect {_fmt(rep.invariance_defect)})")
    if "modes" in trace:
        lines.append("== modes ==")
        lines.append("l rho residual")
        amps = trace["modes"]
        for idx, (rho, res) in enumerate(zip(amps.rho.tolist(),
                                             amps.residual.tolist())):
            lines.append(f"{amps.mode_index + idx} {rho!r} {_fmt(res)}")
    if residuals is not None:
        lines.append("== residuals ==")
        lines.append(f"interior_max={_fmt(residuals.interior_max)}")
        lines.append(f"left_bc_max={_fmt(residuals.left_bc_max)}")
        lines.append(f"right_bc_max={_fmt(residuals.right_bc_max)}")
        lines.append(f"init_pos_max={_fmt(residuals.init_pos_max)}")
        lines.append(f"init_vel_max={_fmt(residuals.init_vel_max)}")
        lines.append(f"normalizer={residuals.normalizer!r}")
    if "stability" in trace:
        st = trace["stability"]
        lines.append("== stability ==")
        lines.append(f"growth_rate={_fmt(st.growth_rate)} "
                     f"sup_norm={_fmt(st.sup_norm)} "
                     f"envelope={_fmt(st.envelope)}")
        lines.append(f"power_bound_ok={st.power_bound_ok} "
                     f"bounded={st.bounded}")
        lines.append("l rho max|Z0^j| max|Z1^j| rate bound_ok")
        for row in st.modes:
            lines.append(f"{row.l} {row.rho_l!r} "
                         f"{_fmt(row.max_power_norm_plus)} "
                         f"{_fmt(row.max_power_norm_minus)} "
                         f"{_fmt(row.growth_rate)} {row.bound_ok}")
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
    rejection condition.
    """
    os.makedirs(out_dir, exist_ok=True)
    trace: dict = {}
    residuals: Optional[ResidualReport] = None
    error: Optional[SingwaveError] = None
    status = 0
    try:
        sol = solve_problem(spec, trace)
        residuals = residual_report(sol.U, spec)
    except SingwaveError as exc:
        error = exc
        status = exc.exit_code
    if "eigenpairs" in trace:
        write_eigen_csv(trace["eigenpairs"],
                        os.path.join(out_dir, "eigen.csv"))
    if error is None:
        write_solution_csv(trace["solution"].U, spec.grid,
                           os.path.join(out_dir, "solution.csv"))
    report = build_report(spec, trace, residuals, error)
    with open(os.path.join(out_dir, "report.txt"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(report)
    if not quiet:
        sys.stdout.write(report)
    return status


def run_verify(problem_path: str, solution_path: str,
               tol: float = 1e-8, quiet: bool = False) -> int:
    """Replay the residual oracle on a saved solution; exit 2 when any
    residual exceeds the tolerance, which must be a valid residual
    tolerance (ParseError otherwise)."""
    tol = Tolerances(residual=tol).residual
    spec = parse_problem(problem_path)
    U = read_solution_csv(solution_path)
    expected = (spec.grid.N + 1, spec.grid.M + 1, spec.m)
    if U.shape != expected:
        raise ShapeError(
            f"solution grid {U.shape} does not match problem {expected}")
    rep = residual_report(U, spec)
    if not quiet:
        for name in ("interior_max", "left_bc_max", "right_bc_max",
                     "init_pos_max", "init_vel_max"):
            print(f"{name}={_fmt(getattr(rep, name))}")
        print(f"normalizer={rep.normalizer!r}")
    if not rep.worst <= tol:  # a NaN residual fails
        if not quiet:
            print(f"FAIL: worst residual {_fmt(rep.worst)} exceeds {tol:g}")
        return 2
    if not quiet:
        print("OK")
    return 0


def _apply_tolerance_flags(spec: ProblemSpec, args) -> ProblemSpec:
    """The spec with the solve flags applied, checked like file values."""
    flags = {"rank": args.tol_rank, "residual": args.tol_residual}
    changes = {"tolerances": dataclasses.replace(
        spec.tolerances,
        **{name: value for name, value in flags.items() if value is not None})}
    if args.gamma is not None:
        try:
            changes["gamma"] = complex(args.gamma)
        except ValueError as exc:
            raise ParseError(f"--gamma: {args.gamma!r} is not a number") from exc
    return dataclasses.replace(spec, **changes)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singwave",
        description="Solve coupled two-level difference systems with a "
                    "singular time-coefficient matrix.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True,
                           help="problem file (JSON)")
        p.add_argument("--out-dir", default=".",
                       help="directory for output files")
        p.add_argument("--quiet", action="store_true",
                       help="suppress normal output")

    p_solve = sub.add_parser("solve", help="run the full pipeline")
    common(p_solve)
    p_solve.add_argument("--tol-rank", type=float, default=None)
    p_solve.add_argument("--tol-residual", type=float, default=None)
    p_solve.add_argument("--gamma", default=None,
                         help="override the pencil shift (complex literal)")

    p_verify = sub.add_parser("verify",
                              help="check a saved solution's residuals")
    common(p_verify)
    p_verify.add_argument("--solution", required=True,
                          help="solution.csv to check")
    p_verify.add_argument("--tol-residual", type=float, default=1e-8)

    p_eigen = sub.add_parser("eigen",
                             help="write the spatial eigenvalue table")
    common(p_eigen)

    p_example = sub.add_parser("example",
                               help="write the shipped demo problem file")
    common(p_example, needs_input=False)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            spec = _apply_tolerance_flags(parse_problem(args.input), args)
            return run_solve(spec, args.out_dir, args.quiet)
        if args.command == "verify":
            return run_verify(args.input, args.solution,
                              args.tol_residual, args.quiet)
        if args.command == "eigen":
            spec = parse_problem(args.input)
            os.makedirs(args.out_dir, exist_ok=True)
            path = os.path.join(args.out_dir, "eigen.csv")
            write_eigen_csv(solve_psd(spec.sl_problem()), path)
            if not args.quiet:
                print(path)
            return 0
        if args.command == "example":
            spec = demo_problem()
            os.makedirs(args.out_dir, exist_ok=True)
            path = os.path.join(args.out_dir, "problem.json")
            write_problem(spec, path)
            if not args.quiet:
                print(path)
            return 0
        raise AssertionError(f"unhandled command {args.command}")
    except ModelRejection as exc:
        print(f"rejected [{exc.condition}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except InputError as exc:
        print(f"input error [{exc.condition}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except NumericalFailure as exc:
        print(f"numerical failure [{exc.condition}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
