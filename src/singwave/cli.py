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
import sys
from typing import Dict, List, Optional, Sequence

import numpy as np

from .csv_io import read_solution_csv, write_eigen_csv, write_solution_csv
from .errors import NumericalFailure, ParseError, SingwaveError
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

# keys every problem file holds; "tolerances" is the one optional key
_REQUIRED_KEYS = ("m", *MATRIX_KEYS, "alpha", "beta", "N", "k", "T", "F", "G")


def _pair_to_complex(cell):
    """A cell of the file as a complex when it is an [re, im] pair of
    numbers; every other cell is as_matrix's to check."""
    if (isinstance(cell, list) and len(cell) == 2
            and all(is_number(p) for p in cell)):
        with contextlib.suppress(OverflowError):  # an int too large
            return complex(cell[0], cell[1])
    return cell


def _parse_table(doc: dict, key: str) -> list:
    """A table of the file, a list of rows of cells, with its [re, im]
    pairs read as complex numbers; ProblemSpec checks its cells and its
    shape."""
    rows = doc[key]
    if not (isinstance(rows, list)
            and all(isinstance(row, list) for row in rows)):
        raise ParseError(f'"{key}" must be a list of rows, got {rows!r}')
    # a row with no list cell needs no reading
    return [[_pair_to_complex(cell) for cell in row]
            if list in map(type, row) else row for row in rows]


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


if __name__ == "__main__":
    sys.exit(main())
