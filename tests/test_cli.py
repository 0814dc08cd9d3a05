"""Problem file parsing, output formats, and end-to-end command flow."""

import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from singwave.cli import (
    main,
    parse_problem,
    read_solution_csv,
    serialize_problem,
    write_problem,
    write_solution_csv,
)
from singwave.errors import ParseError, ShapeError
from singwave.fixtures import demo_problem, reject_projector_mismatch
from singwave.solver import GridParams


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


def test_problem_file_plain_numbers(tmp_path):
    doc = {
        "m": 1, "E": [[1.0]], "A": [[1]], "A1": [[1]], "A2": [[0]],
        "B1": [[1]], "B2": [[0]], "alpha": 0, "beta": 0,
        "N": 2, "k": 0.25, "T": 0.5,
        "F": [[0], [1.0], [0]], "G": [[0], [0.5], [0]],
    }
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(doc))
    spec = parse_problem(str(path))
    assert spec.m == 1
    assert_allclose(spec.F[1, 0], 1.0, atol=1e-15)
    assert_allclose(spec.Gv[1, 0], 0.5, atol=1e-15)


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
    grid = GridParams.create(3, 0.5, 1.0)
    path = tmp_path / "solution.csv"
    write_solution_csv(U, grid, str(path))
    back = read_solution_csv(str(path))
    assert np.array_equal(back, U)  # repr round-trips every float exactly


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


def test_solve_defective_reduced_fails_after_admissibility(tmp_path):
    # E = I, A = Jordan block, clamped ends: the reduced operator is A
    # itself, which has no eigenvector basis; the propagators fail only
    # after every admissibility section has been reported
    N = 4
    eye, zero = [[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]
    F = [[0.0, 0.0]] + [[0.5, 0.25]] * (N - 1) + [[0.0, 0.0]]
    doc = {"m": 2, "E": eye, "A": [[1.0, 1.0], [0.0, 1.0]],
           "A1": eye, "A2": zero, "B1": eye, "B2": zero,
           "alpha": 0.0, "beta": 0.0, "N": N, "k": 0.125, "T": 0.5,
           "F": F, "G": [[0.0, 0.0]] * (N + 1)}
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(doc))
    code = main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"])
    assert code == 4
    report = (tmp_path / "report.txt").read_text()
    assert "REJECTED: defective-matrix" in report
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
