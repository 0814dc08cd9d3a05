"""Problem file parsing, output formats, and end-to-end command flow."""

import csv
import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import singwave
from singwave.cli import (
    main,
    parse_problem,
    read_solution_csv,
    serialize_problem,
    write_problem,
    write_solution_csv,
)
from singwave.errors import InputError, ParseError, ShapeError
from singwave.fixtures import (
    demo_problem,
    reject_projector_mismatch,
    reject_rho_degenerate,
)
from singwave.solver import GridParams, ProblemSpec
from singwave.verify import ResidualReport


# ------------------------------------------------------------ file formats

def test_problem_file_roundtrip(tmp_path):
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    path = tmp_path / "problem.json"
    write_problem(spec, str(path))
    back = parse_problem(str(path))
    assert back.m == spec.m
    for name in ("E", "A", "A1", "A2", "B1", "B2", "F", "Gv"):
        assert np.array_equal(getattr(back, name), getattr(spec, name)), name
    assert back.alpha == spec.alpha and back.beta == spec.beta
    assert back.grid == spec.grid
    assert back.tolerances == spec.tolerances


def _plain_scalar_doc():
    return {
        "m": 1, "E": [[1.0]], "A": [[1]], "A1": [[1]], "A2": [[0]],
        "B1": [[1]], "B2": [[0]], "alpha": 0, "beta": 0,
        "N": 2, "k": 0.25, "T": 0.5,
        "F": [[0], [1.0], [0]], "G": [[0], [0.5], [0]],
    }


def test_problem_file_plain_numbers(tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(_plain_scalar_doc()))
    spec = parse_problem(str(path))
    assert spec.m == 1
    assert_allclose(spec.F[1, 0], 1.0, atol=1e-15)
    assert_allclose(spec.Gv[1, 0], 0.5, atol=1e-15)


@pytest.mark.parametrize("key,value", [
    ("m", True), ("N", True), ("E", [[True]]), ("A", [[[True, 0.0]]]),
    ("alpha", True), ("k", True), ("F", [[0], [True], [0]]),
    ("gamma", True), ("rho_override", True), ("rho_override", [False]),
    ("tolerances", {"rank": True}),
])
def test_problem_file_rejects_booleans_as_numbers(tmp_path, key, value):
    # bool is an int to Python, but a JSON true is not a number
    doc = _plain_scalar_doc()
    doc[key] = value
    problem = tmp_path / "bool.json"
    problem.write_text(json.dumps(doc))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 3


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("edit,flags,override", [
    ({"alpha": NAN}, [], {"alpha": NAN}),
    ({"beta": INF}, [], {"beta": INF}),
    ({"alpha": 10 ** 400}, [], {"alpha": 10 ** 400}),
    ({"gamma": NAN}, [], {"gamma": NAN}),
    ({"gamma": [NAN, 0]}, [], {"gamma": complex(NAN, 0)}),
    ({}, ["--gamma", "nan"], {"gamma": complex("nan")}),
    ({}, ["--gamma", "inf"], {"gamma": complex("inf")}),
    ({"rho_override": NAN}, [], {"rho_override": NAN}),
    ({"rho_override": INF}, [], {"rho_override": INF}),
    ({"rho_override": [NAN]}, [], {"rho_override": [NAN]}),
    ({"rho_override": [0.1, 0.2]}, [], {"rho_override": [0.1, 0.2]}),
    ({"m": 1.0}, [], {"m": 1.0}),
    ({"m": True}, [], {"m": True}),
    ({"N": 2.0}, [], {"grid": GridParams(N=2.0, k=0.25, T=0.5, M=2,
                                         r=0.5)}),
    ({"E": [1.0]}, [], {"E": np.ones(1)}),
    ({"E": [[10 ** 400]]}, [], {"E": [[10 ** 400]]}),
], ids=["alpha-nan", "beta-inf", "alpha-huge", "gamma-nan", "gamma-pair-nan",
        "gamma-flag-nan", "gamma-flag-inf", "rho-nan", "rho-inf",
        "rho-list-nan", "rho-length", "m-float", "m-bool", "N-float",
        "E-1d", "E-huge"])
def test_file_and_library_reject_the_same_values(tmp_path, edit, flags,
                                                  override):
    # one validator: a value the file may not hold, the library may not
    # take either
    doc = _plain_scalar_doc()
    spec = ProblemSpec(m=1, E=[[1.0]], A=[[1.0]], A1=[[1.0]], A2=[[0.0]],
                       B1=[[1.0]], B2=[[0.0]], alpha=0.0, beta=0.0,
                       F=doc["F"], Gv=doc["G"],
                       grid=GridParams.create(2, 0.25, 0.5))
    doc.update(edit)
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(doc))
    assert main(["solve", "--input", str(problem), "--out-dir",
                 str(tmp_path), "--quiet", *flags]) == 3
    with pytest.raises(InputError):
        dataclasses.replace(spec, **override)


def test_problem_file_pair_entries(tmp_path):
    doc = json.loads(json.dumps(serialize_problem(
        demo_problem(4, 0.125, 0.5))))
    doc["E"][0][0] = [1.0, 0.5]  # explicit complex entry
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(doc))
    spec = parse_problem(str(path))
    assert spec.E[0, 0] == 1.0 + 0.5j


def test_problem_file_missing_keys(tmp_path):
    doc = serialize_problem(demo_problem(4, 0.125, 0.5))
    del doc["E"]
    del doc["T"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as info:
        parse_problem(str(path))
    assert "E" in str(info.value) and "T" in str(info.value)


def test_problem_file_bad_matrix_shape(tmp_path):
    doc = serialize_problem(demo_problem(4, 0.125, 0.5))
    doc["E"] = doc["E"][:2]  # two rows for a three-component system
    path = tmp_path / "badshape.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ShapeError) as info:
        parse_problem(str(path))
    assert '"E"' in str(info.value)


def test_problem_file_invalid_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        parse_problem(str(path))


def test_solution_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    U = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
    big = np.finfo(float).max
    U[0, 0, 0] = complex(-0.0, 1.0)
    U[1, 2, 1] = complex(5e-324, -5e-324)
    U[3, 1, 0] = complex(big, -big)
    grid = GridParams.create(3, 0.5, 1.0)
    path = tmp_path / "solution.csv"
    write_solution_csv(U, grid, str(path))
    back = read_solution_csv(str(path))
    # bit patterns, so that the sign of a zero counts
    assert back.shape == U.shape
    assert np.array_equal(back.view(np.int64), U.view(np.int64))


def test_solution_csv_spans_several_blocks(tmp_path, monkeypatch):
    # 3 x 4001 = 12003 nodes: two whole 4096-node blocks and a partial one
    rng = np.random.default_rng(6)
    U = rng.standard_normal((3, 4001, 1)) + 1j * rng.standard_normal(
        (3, 4001, 1))
    grid = GridParams.create(2, 1e-3, 4.0)
    path = tmp_path / "solution.csv"
    write_solution_csv(U, grid, str(path))
    back = read_solution_csv(str(path))
    assert np.array_equal(back.view(np.int64), U.view(np.int64))
    # the block size does not show in the bytes
    monkeypatch.setattr("singwave.cli._CSV_BLOCK", 7)
    small = tmp_path / "small_blocks.csv"
    write_solution_csv(U, grid, str(small))
    assert small.read_bytes() == path.read_bytes()


def test_solution_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ParseError):
        read_solution_csv(str(path))


def test_solution_csv_rejects_missing_rows(tmp_path):
    U = np.zeros((3, 2, 1), dtype=complex)
    grid = GridParams.create(2, 0.5, 0.5)
    path = tmp_path / "partial.csv"
    write_solution_csv(U, grid, str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ParseError):
        read_solution_csv(str(path))


def _edited_solution(tmp_path, edit):
    """A 3x2 scalar solution table with its body lines passed through
    ``edit``."""
    U = np.arange(6, dtype=complex).reshape(3, 2, 1)
    path = tmp_path / "edited.csv"
    write_solution_csv(U, GridParams.create(2, 0.5, 0.5), str(path))
    header, *body = path.read_text().splitlines()
    path.write_text("\n".join([header, *edit(body)]) + "\n")
    return str(path)


@pytest.mark.parametrize("edit", [
    lambda body: ["0,0,0.0,0.0,abc,0.0"] + body[1:],
    lambda body: ["2.5,0,0.0,0.0,0.0,0.0"] + body[1:],
    lambda body: body[:-1] + ["-1,1,1.0,0.5,5.0,0.0"],
    lambda body: body + [body[0]],
    lambda body: [],
], ids=["non-numeric", "fractional-index", "negative-index", "repeated",
        "empty"])
def test_solution_csv_rejects_malformed_rows(tmp_path, edit):
    path = _edited_solution(tmp_path, edit)
    with pytest.raises(ParseError):
        read_solution_csv(path)


def test_verify_malformed_solution_exits_3(tmp_path, capsys):
    spec = demo_problem(4, 0.125, 0.5)
    problem = tmp_path / "problem.json"
    write_problem(spec, str(problem))
    out = str(tmp_path)
    assert main(["solve", "--input", str(problem), "--out-dir", out,
                 "--quiet"]) == 0
    path = tmp_path / "solution.csv"
    header, first, *rest = path.read_text().splitlines()
    path.write_text("\n".join([header, "abc" + first[1:], *rest]) + "\n")
    assert main(["verify", "--input", str(problem), "--solution",
                 str(path), "--quiet"]) == 3


@pytest.mark.parametrize("node", [(1, 1), (0, 0), (0, 1)])
def test_verify_rejects_a_non_finite_cell(tmp_path, node):
    problem = tmp_path / "problem.json"
    write_problem(demo_problem(4, 0.125, 0.5), str(problem))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    path = tmp_path / "solution.csv"
    header, *body = path.read_text().splitlines()
    row = body[node[0] * 5 + node[1]].split(",")  # M + 1 = 5 nodes a row
    assert (int(row[0]), int(row[1])) == node
    row[4] = "nan"
    body[node[0] * 5 + node[1]] = ",".join(row)
    path.write_text("\n".join([header, *body]) + "\n")
    with pytest.raises(ParseError):
        read_solution_csv(str(path))
    assert main(["verify", "--input", str(problem), "--solution",
                 str(path), "--quiet"]) == 3


def test_verify_gate_fails_a_nan_residual(tmp_path, monkeypatch):
    problem = tmp_path / "problem.json"
    write_problem(demo_problem(4, 0.125, 0.5), str(problem))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    nan_report = ResidualReport(np.nan, 0.0, 0.0, 0.0, 0.0, 1.0)
    monkeypatch.setattr("singwave.cli.residual_report",
                        lambda U, spec: nan_report)
    assert main(["verify", "--input", str(problem), "--solution",
                 str(tmp_path / "solution.csv"), "--quiet"]) == 2


# ------------------------------------------------------------ command flow

def test_example_solve_verify_roundtrip(tmp_path):
    out = str(tmp_path)
    assert main(["example", "--out-dir", out, "--quiet"]) == 0
    problem = tmp_path / "problem.json"
    assert problem.exists()
    assert main(["solve", "--input", str(problem), "--out-dir", out,
                 "--quiet"]) == 0
    for name in ("solution.csv", "eigen.csv", "report.txt"):
        assert (tmp_path / name).exists(), name
    report = (tmp_path / "report.txt").read_text()
    assert "ACCEPTED" in report
    assert "== residuals ==" in report
    assert main(["verify", "--input", str(problem),
                 "--solution", str(tmp_path / "solution.csv"),
                 "--quiet"]) == 0


def test_solve_outputs_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    problem = tmp_path / "problem.json"
    write_problem(demo_problem(8, 1.0 / 32.0, 1.0), str(problem))
    for out in (out_a, out_b):
        assert main(["solve", "--input", str(problem),
                     "--out-dir", str(out), "--quiet"]) == 0
    for name in ("solution.csv", "eigen.csv", "report.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_solve_rejection_writes_report(tmp_path):
    problem = tmp_path / "problem.json"
    write_problem(reject_projector_mismatch(8, 1.0 / 32.0, 1.0),
                  str(problem))
    code = main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"])
    assert code == 2
    report = (tmp_path / "report.txt").read_text()
    assert "REJECTED: projector-data-mismatch" in report
    assert not (tmp_path / "solution.csv").exists()
    assert (tmp_path / "eigen.csv").exists()


def _clamped_pair_doc(A, N=4):
    """E = I, the given 2 x 2 A, clamped ends, data in both components."""
    eye, zero = [[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]
    F = [[0.0, 0.0]] + [[0.5, 0.25]] * (N - 1) + [[0.0, 0.0]]
    G = [[0.0, 0.0]] + [[0.1, -0.2]] * (N - 1) + [[0.0, 0.0]]
    return {"m": 2, "E": eye, "A": A, "A1": eye, "A2": zero, "B1": eye,
            "B2": zero, "alpha": 0.0, "beta": 0.0, "N": N, "k": 0.125,
            "T": 0.5, "F": F, "G": G}


def test_solve_jordan_reduced_matches_explicit_march(tmp_path):
    # E = I, A = Jordan block at 1: the reduced operator is A itself,
    # which has no eigenvector basis.  E is invertible, so the grid is
    # also fixed by marching the scheme explicitly.
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    doc = _clamped_pair_doc(A.tolist())
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(doc))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    assert "ACCEPTED" in (tmp_path / "report.txt").read_text()
    U = read_solution_csv(str(tmp_path / "solution.csv"))

    N, k, M = doc["N"], doc["k"], 4
    r2 = (k * N) ** 2
    F, G = np.array(doc["F"]), np.array(doc["G"])
    march = np.zeros((N + 1, M + 1, 2))
    march[:, 0] = F
    march[1:N, 1] = F[1:N] + k * G[1:N]
    for j in range(1, M):
        cur = march[:, j]
        lap = cur[2:] - 2.0 * cur[1:-1] + cur[:-2]
        march[1:N, j + 1] = (2.0 * cur[1:-1] - march[1:N, j - 1]
                             + r2 * lap @ A.T)
    assert np.abs(U - march).max() <= 1e-12 * np.abs(march).max()

    rep = singwave.residual_report(U, parse_problem(str(problem)))
    for name in ("interior_max", "left_bc_max", "right_bc_max",
                 "init_pos_max", "init_vel_max"):
        assert getattr(rep, name) <= 1e-8, name


def test_solve_jordan_at_coinciding_roots_rejected(tmp_path):
    # E = I, A = [[0, 1], [0, 0]]: both propagator roots equal 1 on a
    # Jordan block, where no square root exists, so the roots cannot be
    # told apart; rejected after every admissibility section is reported
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(_clamped_pair_doc([[0.0, 1.0],
                                                     [0.0, 0.0]])))
    code = main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"])
    assert code == 2
    report = (tmp_path / "report.txt").read_text()
    assert "REJECTED: rho-degenerate" in report
    assert "mode 1:" in report
    for section in ("== pencil ==", "== endpoint matrix ==",
                    "== admissibility =="):
        assert section in report, section
    assert "== modes ==" not in report


def test_solve_invalid_grid_exits_3(tmp_path):
    doc = serialize_problem(demo_problem(4, 0.125, 0.5))
    doc["k"] = 0.3  # T/k is then not an integer
    problem = tmp_path / "badgrid.json"
    problem.write_text(json.dumps(doc))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 3


@pytest.mark.parametrize("tolerances,flags", [
    ({"residual": float("nan")}, []),
    ({"consistency": float("inf")}, []),
    ({"rank": "abc"}, []),
    ({"rank": None}, []),
    ({"rank": -1}, []),
    ({"residual": 0}, []),
    ({}, ["--tol-rank=-1"]),
    ({}, ["--tol-residual", "nan"]),
], ids=["nan", "inf", "text", "null", "negative", "zero", "rank-flag",
        "residual-flag"])
def test_solve_bad_tolerance_exits_3(tmp_path, tolerances, flags):
    # a NaN tolerance would make every gate comparison false
    doc = serialize_problem(reject_rho_degenerate())
    doc["tolerances"].update(tolerances)
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(doc))
    assert main(["solve", "--input", str(problem), "--out-dir",
                 str(tmp_path), "--quiet", *flags]) == 3


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_verify_bad_tolerance_exits_3(tmp_path, tol):
    problem = tmp_path / "problem.json"
    write_problem(demo_problem(4, 0.125, 0.5), str(problem))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    assert main(["verify", "--input", str(problem), "--solution",
                 str(tmp_path / "solution.csv"), f"--tol-residual={tol}",
                 "--quiet"]) == 3


def test_verify_detects_tampering(tmp_path):
    problem = tmp_path / "problem.json"
    write_problem(demo_problem(8, 1.0 / 32.0, 1.0), str(problem))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    sol_path = tmp_path / "solution.csv"
    with open(sol_path, newline="") as fh:
        rows = list(csv.reader(fh))
    # corrupt one interior value
    for row in rows[1:]:
        if row[0] == "4" and row[1] == "2":
            row[4] = repr(float(row[4]) + 1e-3)
    with open(sol_path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["verify", "--input", str(problem),
                 "--solution", str(sol_path), "--quiet"]) == 2


def test_verify_shape_mismatch_exits_3(tmp_path):
    big = tmp_path / "big.json"
    write_problem(demo_problem(8, 1.0 / 32.0, 1.0), str(big))
    assert main(["solve", "--input", str(big),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    small = tmp_path / "small.json"
    write_problem(demo_problem(4, 0.125, 0.5), str(small))
    assert main(["verify", "--input", str(small),
                 "--solution", str(tmp_path / "solution.csv"),
                 "--quiet"]) == 3


def test_eigen_command(tmp_path):
    problem = tmp_path / "problem.json"
    write_problem(demo_problem(8, 1.0 / 32.0, 1.0), str(problem))
    assert main(["eigen", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    with open(tmp_path / "eigen.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["l", "lambda"]
    assert len(rows) == 8  # header + N-1 modes
    assert float(rows[1][1]) == 0.0  # coupled scalars give a zero mode


def test_gamma_flag(tmp_path):
    problem = tmp_path / "problem.json"
    write_problem(demo_problem(4, 0.125, 0.5), str(problem))
    out = tmp_path / "run"
    assert main(["solve", "--input", str(problem), "--out-dir", str(out),
                 "--gamma", "1", "--quiet"]) == 0
    assert main(["solve", "--input", str(problem), "--out-dir", str(out),
                 "--gamma", "bogus", "--quiet"]) == 3


def test_missing_input_file_exits_3(tmp_path):
    assert main(["solve", "--input", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path), "--quiet"]) == 3


# ---------------------------------------------------------------- start-up

def test_importing_the_cli_leaves_scipy_out():
    # scipy is imported by the solves that need it; verify needs none
    src = pathlib.Path(singwave.__file__).resolve().parents[1]
    code = "import sys, singwave.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_eigen_and_verify_leave_scipy_out(tmp_path):
    problem = tmp_path / "problem.json"
    write_problem(demo_problem(4, 0.125, 0.5), str(problem))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    src = pathlib.Path(singwave.__file__).resolve().parents[1]
    code = ("import sys, singwave.cli as cli\n"
            "problem, solution, out = sys.argv[1:]\n"
            "codes = [cli.main(['eigen', '--input', problem, '--out-dir',"
            " out, '--quiet']),\n"
            "         cli.main(['verify', '--input', problem, '--solution',"
            " solution, '--quiet'])]\n"
            "print(codes, 'scipy' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code, str(problem),
         str(tmp_path / "solution.csv"), str(tmp_path / "eigen")],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0] False"
