"""Problem file parsing, output formats, and end-to-end command flow."""

import argparse
import csv
import dataclasses
import errno
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import singwave
from singwave import cli, csv_io
from singwave.cli import (
    _make_parser,
    main,
    parse_problem,
    read_solution_csv,
    serialize_problem,
    write_problem,
    write_solution_csv,
)
from singwave.errors import (InputError, ParseError, ShapeError,
                             SingularLevelOperator)
from singwave.fixtures import (
    _with_boundary,
    demo_problem,
    reject_kernel_violation,
    reject_projector_mismatch,
    reject_rho_degenerate,
    scalar_wave_problem,
)
from singwave.solver import (GridParams, ProblemSpec, Tolerances,
                             solve_problem)
from singwave.sturm_liouville import (
    SLProblem,
    assemble_pencil,
    boundary_scalars,
    solve_psd,
)
from singwave.verify import ResidualReport, brute_force_reference

from csv_oracle import solution_csv_oracle
from random_matrices import random_orthogonal
from rotated_demo import rotated_demos

# where the process may fork a writer or reader that runs beside it
TWO_PROCESSES = pytest.mark.skipif(
    not csv_io._two_processes(),
    reason="needs os.fork, os.memfd_create and two CPUs")


# ------------------------------------------------------------ file formats

def test_problem_file_roundtrip(tmp_path):
    spec = dataclasses.replace(demo_problem(8, 1.0 / 32.0, 1.0),
                               tolerances=Tolerances(1e-11, 1e-9, 1e-7))
    path = tmp_path / "problem.json"
    write_problem(spec, str(path))
    back = parse_problem(str(path))
    for f in dataclasses.fields(ProblemSpec):
        ours, theirs = getattr(spec, f.name), getattr(back, f.name)
        default = (f.default if f.default_factory is dataclasses.MISSING
                   else f.default_factory())
        if default is not dataclasses.MISSING:
            # a field left at its default would not show whether the
            # file carries it
            assert ours != default, f.name
        assert (np.array_equal(theirs, ours) if isinstance(ours, np.ndarray)
                else theirs == ours), f.name


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
    pytest.param("tolerances", {"rank": True}, id="tolerances-value10"),
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


@pytest.mark.parametrize("edit,override", [
    ({"alpha": NAN}, {"alpha": NAN}),
    ({"beta": INF}, {"beta": INF}),
    ({"alpha": 10 ** 400}, {"alpha": 10 ** 400}),
    ({"m": 1.0}, {"m": 1.0}),
    ({"m": True}, {"m": True}),
    ({"N": 2.0}, {"grid": GridParams(N=2.0, k=0.25, T=0.5, M=2,
                                     r=0.5)}),
    ({"E": [1.0]}, {"E": np.ones(1)}),
    ({"E": [[10 ** 400]]}, {"E": [[10 ** 400]]}),
], ids=["alpha-nan", "beta-inf", "alpha-huge", "m-float", "m-bool", "N-float",
        "E-1d", "E-huge"])
def test_file_and_library_reject_the_same_values(tmp_path, edit, override):
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
                 str(tmp_path), "--quiet"]) == 3
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


@pytest.mark.parametrize("cell", [
    [1.0, 0.5, 0.0], ["1", 0.5], [True, 0.0], [[1.0, 0.5]], [10 ** 400, 0]],
    ids=["three-parts", "string-part", "bool-part", "nested", "huge-part"])
def test_problem_file_refuses_a_list_cell_that_is_not_a_pair(tmp_path, cell):
    # only an [re, im] pair of numbers is read as a complex; as_matrix
    # refuses any other list cell
    doc = json.loads(json.dumps(serialize_problem(
        demo_problem(4, 0.125, 0.5))))
    doc["E"][0][0] = cell
    path = tmp_path / "bad_pair.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        parse_problem(str(path))


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
    # the reader takes of the problem only its grid and m; the x and t
    # cells the writer makes are those the grid gives
    back = read_solution_csv(str(path), SimpleNamespace(grid=grid, m=2))
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
    back = read_solution_csv(str(path), SimpleNamespace(grid=grid, m=1))
    assert np.array_equal(back.view(np.int64), U.view(np.int64))
    # the block size does not show in the bytes
    monkeypatch.setattr("singwave.csv_io._CSV_BLOCK", 7)
    small = tmp_path / "small_blocks.csv"
    write_solution_csv(U, grid, str(small))
    assert small.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("shape", [(3, 20001, 3), (65, 9, 12)],
                         ids=["one-row-over-several-blocks", "m=12"])
def test_solution_csv_memory_stays_flat(tmp_path, shape):
    # all values distinct, so that no text is shared; one i row of the
    # first grid is 20001 rows, about 15 blocks, and holding it as text
    # would take several MB
    rng = np.random.default_rng(12)
    U = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    grid = GridParams.create(shape[0] - 1, 1e-3, (shape[1] - 1) * 1e-3)
    tracemalloc.start()
    try:
        write_solution_csv(U, grid, str(tmp_path / "solution.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@TWO_PROCESSES
def test_split_read_memory_stays_near_the_serial_read(tmp_path, monkeypatch):
    # a grid of the demo at N = 128, M = 512 (397062 values, which two
    # processes read); the values do not change what the read holds
    rng = np.random.default_rng(13)
    U = rng.standard_normal((129, 513, 3)) + 1j * rng.standard_normal(
        (129, 513, 3))
    spec = SimpleNamespace(grid=GridParams.create(128, 1.0 / 512, 1.0), m=3)
    path = str(tmp_path / "solution.csv")
    write_solution_csv(U, spec.grid, path)
    peaks = {}
    for split in (U.size * 2 + 1, csv_io._CSV_SPLIT):
        monkeypatch.setattr(csv_io, "_CSV_SPLIT", split)
        tracemalloc.start()
        try:
            back = read_solution_csv(path, spec)
            _, peaks[split] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.view(np.int64), U.view(np.int64))
        del back
    serial, two = peaks.values()
    assert two <= 1.1 * serial


def test_solution_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ParseError):
        read_solution_csv(str(path), demo_problem())


@pytest.mark.parametrize("values", ["a,b,c,d,e,f", "u0_im,u0_re,u1_re,u1_im,"
                                    "u2_re,u2_im"], ids=["renamed", "swapped"])
def test_verify_rejects_misnamed_value_columns(tmp_path, capsys, values):
    # the value columns must be named as the writer names them, else
    # verify exits 3 as for any bad header
    problem = tmp_path / "problem.json"
    write_problem(demo_problem(4, 0.125, 0.5), str(problem))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    path = tmp_path / "solution.csv"
    header, body = path.read_text().split("\n", 1)
    assert header == "i,j,x,t,u0_re,u0_im,u1_re,u1_im,u2_re,u2_im"
    path.write_text(f"i,j,x,t,{values}\n{body}")
    capsys.readouterr()
    assert main(["verify", "--input", str(problem),
                 "--solution", str(path)]) == 3
    assert "not a solution table" in capsys.readouterr().err


def test_solution_csv_rejects_missing_rows(tmp_path):
    U = np.zeros((3, 2, 1), dtype=complex)
    grid = GridParams.create(2, 0.5, 0.5)
    path = tmp_path / "partial.csv"
    write_solution_csv(U, grid, str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ParseError):
        read_solution_csv(str(path), scalar_wave_problem(2, 0.5, 0.5))


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
    # node (3, 0) of a grid one row taller, with its x and t
    lambda body: body + ["3,0,1.5,0.0,0.0,0.0"],
], ids=["non-numeric", "fractional-index", "negative-index", "repeated",
        "empty", "row-past-the-grid"])
def test_solution_csv_rejects_malformed_rows(tmp_path, edit):
    path = _edited_solution(tmp_path, edit)
    with pytest.raises(ParseError):
        read_solution_csv(path, scalar_wave_problem(2, 0.5, 0.5))


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
        read_solution_csv(str(path), parse_problem(str(problem)))
    assert main(["verify", "--input", str(problem), "--solution",
                 str(path), "--quiet"]) == 3


@pytest.mark.parametrize("cells", [("123.0", "-7.5"), ("123.0", "0.0"),
                                   ("0.0", "1e-9")],
                         ids=["x-and-t", "x", "t"])
def test_verify_rejects_x_or_t_off_the_grid(tmp_path, capsys, cells):
    # an x cell must be i/N and a t cell j*k of the problem's grid
    problem = tmp_path / "problem.json"
    write_problem(demo_problem(4, 0.125, 0.5), str(problem))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    path = tmp_path / "solution.csv"
    header, first, *rest = path.read_text().splitlines()
    row = first.split(",")
    assert row[:4] == ["0", "0", "0.0", "0.0"]
    row[2:4] = cells
    path.write_text("\n".join([header, ",".join(row), *rest]) + "\n")
    capsys.readouterr()
    assert main(["verify", "--input", str(problem),
                 "--solution", str(path), "--quiet"]) == 3
    assert "x or t cell" in capsys.readouterr().err


@pytest.mark.parametrize("other, message", [
    (demo_problem(5, 0.125, 0.5), "(5, 5, 3) does not match problem (6, 5"),
    (demo_problem(4, 0.125, 0.625), "(5, 5, 3) does not match problem (5, 6"),
    (scalar_wave_problem(4, 0.125, 0.5), "does not match problem (5, 5, 1)"),
], ids=["N", "M", "m"])
def test_verify_rejects_a_solution_of_another_grid(tmp_path, capsys, other,
                                                   message):
    problem = tmp_path / "problem.json"
    write_problem(demo_problem(4, 0.125, 0.5), str(problem))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    write_problem(other, str(problem))
    capsys.readouterr()
    assert main(["verify", "--input", str(problem), "--solution",
                 str(tmp_path / "solution.csv"), "--quiet"]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("N", [
    8, pytest.param(64, marks=TWO_PROCESSES, id="64-split-then-one")])
def test_verify_rejects_rows_out_of_the_writer_order(tmp_path, capsys, N):
    # the body rows permuted: at N = 8 one process reads the table; at
    # N = 64, M = 256 (100230 values) two processes read it, refuse it
    # and leave it to one; either way its rows must be in the writer's
    # order
    spec = demo_problem(N, 1.0 / (4 * N), 1.0)
    values = 2 * spec.m * (N + 1) * (4 * N + 1)
    assert (values >= csv_io._CSV_SPLIT) == (N == 64)
    problem = tmp_path / "problem.json"
    write_problem(spec, str(problem))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    path = tmp_path / "solution.csv"
    header, *body, end = path.read_bytes().split(b"\r\n")
    order = np.random.default_rng(16).permutation(len(body))
    path.write_bytes(b"\r\n".join([header, *(body[r] for r in order), end]))
    with pytest.raises(ParseError):
        read_solution_csv(str(path), spec)
    capsys.readouterr()
    assert main(["verify", "--input", str(problem),
                 "--solution", str(path), "--quiet"]) == 3
    assert "input error [parse-error]" in capsys.readouterr().err


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


def test_solve_report_stability_rows_come_from_the_roots(tmp_path):
    # one row per mode of l, rho and growth rate; no power norms
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    problem = tmp_path / "problem.json"
    write_problem(spec, str(problem))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "report.txt").read_text().splitlines()
    start = lines.index("== stability ==")
    assert lines[start + 3] == "l rho rate"
    rows = [row.split() for row in
            lines[start + 4:lines.index("== result ==")]]
    assert [int(row[0]) for row in rows] == list(range(1, spec.grid.N))
    assert all(len(row) == 3 for row in rows)
    # the mode rows and the stability rows number the modes alike, and
    # row l holds the rho of eigen.csv's lambda_l
    modes = lines.index("== modes ==")
    assert lines[modes + 1] == "l rho residual"
    mode_rows = [row.split() for row in
                 lines[modes + 2:lines.index("== residuals ==")]]
    assert [row[:2] for row in mode_rows] == [row[:2] for row in rows]
    with open(tmp_path / "eigen.csv", newline="", encoding="utf-8") as fh:
        eigen = list(csv.reader(fh))[1:]
    assert [[l, repr(float(spec.mode_rho(float(lam))))]
            for l, lam in eigen] == [row[:2] for row in rows]
    src = pathlib.Path(singwave.__file__).parent
    assert not any("max|Z" in path.read_text(encoding="utf-8")
                   for path in src.glob("*.py"))


@pytest.mark.parametrize("N", [2, 3])
def test_demo_on_the_smallest_grids_is_accepted(tmp_path, N):
    # at N = 2 the lowest mode is the only one, and the velocity is zero
    problem = tmp_path / "problem.json"
    write_problem(demo_problem(N, 1.0 / 8.0, 0.5), str(problem))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    assert "ACCEPTED" in (tmp_path / "report.txt").read_text()
    assert main(["verify", "--input", str(problem),
                 "--solution", str(tmp_path / "solution.csv"),
                 "--quiet"]) == 0
    for fixture, condition in [
            (reject_projector_mismatch, "projector-data-mismatch"),
            (reject_kernel_violation, "data-outside-boundary-kernel")]:
        write_problem(fixture(N, 1.0 / 8.0, 0.5), str(problem))
        assert main(["solve", "--input", str(problem),
                     "--out-dir", str(tmp_path), "--quiet"]) == 2
        assert (f"REJECTED: {condition}"
                in (tmp_path / "report.txt").read_text())


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


def test_solve_endpoint_data_off_the_series_rejected(tmp_path):
    # an endpoint row that is not a times its neighbour cannot come from
    # the eigenfunction series: named as a rejection, not a residual failure
    spec = demo_problem(4, 0.125, 0.5)
    F = spec.F.copy()
    F[0, 1] += 0.1
    problem = tmp_path / "problem.json"
    write_problem(dataclasses.replace(spec, F=F), str(problem))
    code = main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"])
    assert code == 2
    report = (tmp_path / "report.txt").read_text()
    assert "ends_match=False" in report
    assert "REJECTED: endpoint-data-mismatch" in report
    assert not (tmp_path / "solution.csv").exists()


def _singular_left_endpoint_problem():
    """A1 and A2 share the kernel vector e0, so A1 - N*A2 is singular and
    the left relation leaves U(0) free in component 0."""
    N, alpha, beta = 8, 0.3, 1.0
    eye = np.eye(2)
    mats = {"alpha": alpha, "beta": beta}
    V = solve_psd(SLProblem(N, alpha, beta)).v
    F_int = np.zeros((N - 1, 2))
    F_int[:, 0] = V[1] + 0.5 * V[2]
    spec = ProblemSpec(m=2, E=eye, A=eye, A1=np.diag([0.0, 5.0]),
                       A2=np.diag([0.0, 1.0]), B1=eye, B2=eye, alpha=alpha,
                       beta=beta, F=_with_boundary(F_int, mats),
                       Gv=np.zeros((N + 1, 2)),
                       grid=GridParams.create(N, 1.0 / 32.0, 0.5))
    assert np.linalg.matrix_rank(spec.A1 - N * spec.A2) == 1
    return spec


def test_solve_with_singular_left_endpoint_operator(tmp_path, capsys):
    # the endpoint row must still be the eigenfunctions' a*U(1)
    spec = _singular_left_endpoint_problem()
    problem = tmp_path / "problem.json"
    write_problem(spec, str(problem))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["verify", "--input", str(problem),
                 "--solution", str(tmp_path / "solution.csv")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "OK"


def test_reference_names_the_free_endpoint_component():
    # the reference does not choose U(0)'s free component: its level
    # operator has that one direction in its kernel, and it says so
    # rather than return a grid that differs from the solver's
    with pytest.raises(SingularLevelOperator, match="kernel of dimension 1"):
        brute_force_reference(_singular_left_endpoint_problem())


def test_solve_beyond_the_step_ratio_limit_rejected(tmp_path):
    # r = 2: the scalar wave's high modes have z = -r^2 lambda < -4, so a
    # propagator root leaves the unit circle; rejected before any stepping
    problem = tmp_path / "problem.json"
    write_problem(scalar_wave_problem(16, 0.125, 20.0), str(problem))
    code = main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"])
    assert code == 2
    report = (tmp_path / "report.txt").read_text()
    assert "REJECTED: unstable-step-ratio" in report
    message = report.splitlines()[-1]
    for part in ("mode 6:", "d=1+0j", "|p| = 2.545716e+00"):
        assert part in message, part
    assert "== modes ==" not in report
    assert not (tmp_path / "solution.csv").exists()


def test_solve_residual_gate_exits_4(tmp_path, monkeypatch):
    # ACCEPTED must mean that verify passes: a solve whose residuals fail
    # verify's gate writes no solution.csv and reports its residuals
    problem = tmp_path / "problem.json"
    write_problem(demo_problem(4, 0.125, 0.5), str(problem))
    failing = ResidualReport(1e-6, 0.0, 0.0, 0.0, 0.0, 1.0)
    monkeypatch.setattr("singwave.cli.residual_report",
                        lambda U, spec: failing)
    code = main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"])
    assert code == 4
    report = (tmp_path / "report.txt").read_text()
    assert "REJECTED: residual-gate" in report
    assert "interior_max=1.000000e-06" in report
    assert not (tmp_path / "solution.csv").exists()


@pytest.mark.parametrize("rejected", ["residual-gate", "model"])
def test_rejected_solve_removes_an_earlier_solution(tmp_path, monkeypatch,
                                                    rejected):
    # after an accepted solve, a rejected one into the same directory
    # leaves no solution.csv that verify could pass beside its REJECTED
    # report
    problem = tmp_path / "problem.json"
    write_problem(demo_problem(4, 0.125, 0.5), str(problem))
    solve = ["solve", "--input", str(problem), "--out-dir", str(tmp_path),
             "--quiet"]
    assert main(solve) == 0
    with monkeypatch.context() as patch:
        if rejected == "model":
            write_problem(reject_projector_mismatch(4, 0.125, 0.5),
                          str(problem))
            assert main(solve) == 2
        else:
            failing = ResidualReport(1e-6, 0.0, 0.0, 0.0, 0.0, 1.0)
            patch.setattr("singwave.cli.residual_report",
                          lambda U, spec: failing)
            assert main(solve) == 4
    assert "REJECTED" in (tmp_path / "report.txt").read_text()
    assert not (tmp_path / "solution.csv").exists()
    assert main(["verify", "--input", str(problem),
                 "--solution", str(tmp_path / "solution.csv"),
                 "--quiet"]) == 3


def test_failed_write_removes_an_earlier_report(tmp_path, monkeypatch):
    # a write that fails after an accepted solve into the same directory
    # leaves no ACCEPTED report.txt beside this run's eigen.csv
    problem, out = tmp_path / "problem.json", tmp_path / "out"
    write_problem(demo_problem(4, 0.125, 0.5), str(problem))
    solve = ["solve", "--input", str(problem), "--out-dir", str(out),
             "--quiet"]
    assert main(solve) == 0
    assert "ACCEPTED" in (out / "report.txt").read_text()

    def full_disk(U, grid, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_solution_csv", full_disk)
    assert main(solve) == 3
    assert os.listdir(out) == ["eigen.csv"]


FAILURES = pytest.mark.parametrize("side, exc", [
    ("child", OSError), ("parent", OSError), ("parent", KeyboardInterrupt)],
    ids=["child-fails", "parent-fails", "parent-interrupted"])


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def _fails_on(side, exc, function):
    """function, made to raise exc in the forked child or in this
    process; it keeps its own behaviour on the other side."""
    parent = os.getpid()

    def failing(*args, **kwargs):
        if (os.getpid() != parent) == (side == "child"):
            raise exc("forced failure")
        return function(*args, **kwargs)
    return failing


@TWO_PROCESSES
@FAILURES
def test_failed_write_leaves_no_solution(tmp_path, monkeypatch, side, exc):
    # a two-process write that fails on either side leaves no truncated
    # solution.csv, no part file, no open memfd and no child process
    problem, out = tmp_path / "problem.json", tmp_path / "out"
    write_problem(demo_problem(4, 0.125, 0.5), str(problem))

    monkeypatch.setattr(csv_io, "_CSV_SPLIT", 1)
    monkeypatch.setattr(csv_io, "_write_nodes",
                        _fails_on(side, exc, csv_io._write_nodes))
    solve = ["solve", "--input", str(problem), "--out-dir", str(out),
             "--quiet"]
    fds = _open_fds()
    if exc is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(solve)
    else:
        assert main(solve) == 3
    assert os.listdir(out) == ["eigen.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


NO_SPACE = os.strerror(errno.ENOSPC)


@TWO_PROCESSES
@pytest.mark.parametrize("failure, message", [
    (lambda _: OSError(errno.ENOSPC, NO_SPACE),
     f"[Errno {errno.ENOSPC}] {NO_SPACE}"),
    (ValueError, "ValueError('forced failure')")],
    ids=["ENOSPC", "no-errno"])
def test_failing_child_names_its_error(tmp_path, monkeypatch, capsys,
                                       failure, message):
    # the child's own exception reaches stderr: a full disk in the
    # child's half reads as a full disk, with exit 3
    problem, out = tmp_path / "problem.json", tmp_path / "out"
    write_problem(demo_problem(4, 0.125, 0.5), str(problem))
    monkeypatch.setattr(csv_io, "_CSV_SPLIT", 1)
    monkeypatch.setattr(csv_io, "_write_nodes",
                        _fails_on("child", failure, csv_io._write_nodes))
    assert main(["solve", "--input", str(problem), "--out-dir", str(out),
                 "--quiet"]) == 3
    assert capsys.readouterr().err == f"i/o error: {message}\n"
    assert os.listdir(out) == ["eigen.csv"]


@TWO_PROCESSES
@pytest.mark.parametrize("call, error", [
    ("fork", errno.EAGAIN), ("memfd_create", errno.EMFILE)],
    ids=["fork-EAGAIN", "memfd_create-EMFILE"])
def test_solve_writes_from_one_process_when_no_child_starts(
        tmp_path, monkeypatch, call, error):
    # a fork or memfd that the system refuses leaves the table to this
    # process: exit 0, the oracle's bytes and no open file left
    spec = demo_problem(16, 1.0 / 64, 1.0)
    problem, out = tmp_path / "problem.json", tmp_path / "out"
    write_problem(spec, str(problem))

    def refused(*args):
        raise OSError(error, os.strerror(error))

    monkeypatch.setattr(csv_io, "_CSV_SPLIT", 1)
    monkeypatch.setattr(os, call, refused)
    fds = _open_fds()
    assert main(["solve", "--input", str(problem), "--out-dir", str(out),
                 "--quiet"]) == 0
    assert _open_fds() == fds
    oracle = tmp_path / "oracle.csv"
    solution_csv_oracle(solve_problem(spec).U, spec.grid, str(oracle))
    assert (out / "solution.csv").read_bytes() == oracle.read_bytes()
    assert sorted(os.listdir(out)) == ["eigen.csv", "report.txt",
                                       "solution.csv"]


@TWO_PROCESSES
@FAILURES
def test_failed_split_read_leaves_nothing_behind(tmp_path, monkeypatch, side,
                                                 exc):
    # a two-process read that fails on either side leaves no open memfd
    # and no child process; a failure is read again by one process,
    # which returns the grid
    spec = demo_problem(4, 0.125, 0.5)
    problem = tmp_path / "problem.json"
    write_problem(spec, str(problem))
    assert main(["solve", "--input", str(problem), "--out-dir",
                 str(tmp_path), "--quiet"]) == 0
    path = str(tmp_path / "solution.csv")
    expected = read_solution_csv(path, spec)
    monkeypatch.setattr(csv_io, "_CSV_SPLIT", 1)
    # the parse of a byte range fails; the one-process read does not
    monkeypatch.setattr(csv_io, "_parse_bytes",
                        _fails_on(side, exc, csv_io._parse_bytes))
    fds = _open_fds()
    if exc is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            read_solution_csv(path, spec)
    else:
        back = read_solution_csv(path, spec)
        assert np.array_equal(back.view(np.int64), expected.view(np.int64))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


def _solve_and_read_imaginary_cells(spec, tmp_path):
    """Solve and verify spec through the CLI, both exiting 0; the text
    of every u*_im cell of its solution.csv."""
    problem = tmp_path / "problem.json"
    solution = tmp_path / "solution.csv"
    write_problem(spec, str(problem))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    assert main(["verify", "--input", str(problem),
                 "--solution", str(solution), "--quiet"]) == 0
    with open(solution, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    cells = [row[key] for row in rows for key in row if key.endswith("_im")]
    assert len(cells) == spec.m * len(rows)
    return cells


def test_real_problem_writes_imaginary_columns_of_zeros(tmp_path, rng):
    spec = rotated_demos(random_orthogonal(rng, 9))
    assert set(_solve_and_read_imaginary_cells(spec, tmp_path)) == {"0.0"}


def test_complex_problem_writes_its_imaginary_part(tmp_path, rng):
    spec = rotated_demos(random_orthogonal(rng, 9), 1.0 + 1.0j)
    cells = _solve_and_read_imaginary_cells(spec, tmp_path)
    assert np.abs(np.array(cells, dtype=float)).max() > 0.1


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
    U = read_solution_csv(str(tmp_path / "solution.csv"),
                          parse_problem(str(problem)))

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


def _not_hyperbolic_doc(probe, N, k, T):
    """A pair whose reduced eigenvalue d leaves [0, inf): E = 1, A = -1
    (d = -1), or E = I with a rotation in A (d = 1 +- 0.3i)."""
    if probe == "negative-d":
        spec = scalar_wave_problem(N, k, T)
        return serialize_problem(dataclasses.replace(spec, A=[[-1.0]]))
    doc = _clamped_pair_doc([[1.0, 0.3], [-0.3, 1.0]], N)
    doc.update(k=k, T=T)
    return doc


@pytest.mark.parametrize("probe,N,k,T,d", [
    ("negative-d", 8, 1 / 32, 1.0, "d=-1+0j"),
    ("negative-d", 32, 1 / 64, 4.0, "d=-1+0j"),
    ("complex-d", 8, 1 / 32, 1.0, "d=1-0.3j"),
    ("complex-d", 16, 1 / 64, 4.0, "d=1-0.3j"),
    ("complex-d", 32, 1 / 128, 16.0, "d=1-0.3j"),
])
def test_solve_not_hyperbolic_rejected(tmp_path, probe, N, k, T, d):
    # z = rho*d leaves [-4, 0] on every mode, so the grid would grow
    # without bound as k -> 0; rejected right after the pencil, on any grid
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(_not_hyperbolic_doc(probe, N, k, T)))
    code = main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"])
    assert code == 2
    report = (tmp_path / "report.txt").read_text()
    assert "REJECTED: not-hyperbolic" in report
    assert d in report.splitlines()[-1]
    assert "== pencil ==" in report
    assert "== endpoint matrix ==" not in report
    assert not (tmp_path / "solution.csv").exists()


def test_solve_invalid_grid_exits_3(tmp_path):
    doc = serialize_problem(demo_problem(4, 0.125, 0.5))
    doc["k"] = 0.3  # T/k is then not an integer
    problem = tmp_path / "badgrid.json"
    problem.write_text(json.dumps(doc))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 3


@pytest.mark.parametrize("tolerances", [
    {"residual": float("nan")},
    {"consistency": float("inf")},
    {"rank": "abc"},
    {"rank": None},
    {"rank": -1},
    {"residual": 0},
], ids=["nan", "inf", "text", "null", "negative", "zero"])
def test_solve_bad_tolerance_exits_3(tmp_path, tolerances):
    # a NaN tolerance would make every gate comparison false
    doc = serialize_problem(reject_rho_degenerate())
    doc["tolerances"].update(tolerances)
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(doc))
    assert main(["solve", "--input", str(problem), "--out-dir",
                 str(tmp_path), "--quiet"]) == 3


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1, 0])
def test_verify_bad_tolerance_exits_3(tmp_path, tol):
    # verify reads its residual tolerance from the problem file, which
    # must hold a valid one
    problem = tmp_path / "problem.json"
    spec = demo_problem(4, 0.125, 0.5)
    write_problem(spec, str(problem))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    doc = serialize_problem(spec)
    doc["tolerances"]["residual"] = tol
    problem.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(problem), "--solution",
                 str(tmp_path / "solution.csv"), "--quiet"]) == 3


def _robin_probe_doc():
    """m = 1 with a Robin left end, alpha N = 1.6, so that one spatial
    eigenvalue is negative; F = sin(pi x) inside, with the eigenfunction
    endpoint rows, and G = 0; the residual tolerance is 1e-6."""
    N, alpha = 24, 1.6 / 24
    a, b = boundary_scalars(SLProblem(N, alpha, 0.0))
    F = np.sin(np.pi * np.arange(N + 1) / N)
    F[0], F[N] = a * F[1], b * F[N - 1]
    return {"m": 1, "E": [[1.0]], "A": [[1.0]], "A1": [[1.0]],
            "A2": [[alpha]], "B1": [[1.0]], "B2": [[0.0]], "alpha": alpha,
            "beta": 0.0, "N": N, "k": 1.0 / 48.0, "T": 1.0,
            "F": F[:, None].tolist(), "G": [[0.0]] * (N + 1),
            "tolerances": {"residual": 1e-6}}


def test_verify_gates_at_the_problem_residual_tolerance(tmp_path, capsys):
    # ACCEPTED implies a passing verify: both gate at the file's residual
    # tolerance, here 1e-6 against a worst residual of about 7e-7
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(_robin_probe_doc()))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path)]) == 0
    assert "ACCEPTED" in capsys.readouterr().out
    assert main(["verify", "--input", str(problem), "--solution",
                 str(tmp_path / "solution.csv")]) == 0
    assert capsys.readouterr().out.endswith("OK\n")


def test_solve_and_verify_accept_a_clustered_spectrum(tmp_path):
    # alpha*N = 0.99 and b = -98.9999995 put the two end scalars, and so the
    # top two spatial eigenvalues, within 1e-8 of each other; F is the
    # lowest mode with its endpoint rows, and G = 0
    N, alpha, b = 8, 0.99 / 8, -98.9999995
    beta = b / (1.0 - b) / N
    prob = SLProblem(N, alpha, beta)
    a, b = boundary_scalars(prob)
    F = np.zeros(N + 1)
    F[1:N] = np.linalg.eigh(assemble_pencil(prob))[1][:, 0]
    F[0], F[N] = a * F[1], b * F[N - 1]
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "m": 1, "E": [[1.0]], "A": [[1.0]], "A1": [[1.0]], "A2": [[alpha]],
        "B1": [[1.0]], "B2": [[beta]], "alpha": alpha, "beta": beta,
        "N": N, "k": 1.0 / 64.0, "T": 0.25, "F": F[:, None].tolist(),
        "G": [[0.0]] * (N + 1)}))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    assert main(["verify", "--input", str(problem), "--solution",
                 str(tmp_path / "solution.csv"), "--quiet"]) == 0


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


@pytest.mark.parametrize("command,bad", [
    ("solve", "problem"), ("verify", "problem"), ("eigen", "problem"),
    ("verify", "solution")])
def test_input_that_is_not_utf8_exits_3(tmp_path, capsys, command, bad):
    problem = tmp_path / "problem.json"
    write_problem(demo_problem(4, 0.125, 0.5), str(problem))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    solution = tmp_path / "solution.csv"
    if bad == "problem":
        problem.write_bytes(b"\xff\xfe" + problem.read_bytes())
    else:  # a cell in the first buffer, which the header's readline decodes
        text = solution.read_bytes()
        solution.write_bytes(text[:200] + b"\xff" + text[201:])
    argv = (["--solution", str(solution)] if command == "verify"
            else ["--out-dir", str(tmp_path)])
    assert main([command, "--input", str(problem), "--quiet", *argv]) == 3
    assert "[parse-error]" in capsys.readouterr().err


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


@pytest.mark.parametrize("key,value", [
    ("gamma", 2.0), ("rho_override", -0.2), ("bogus", 1),
])
def test_problem_file_rejects_unknown_keys(tmp_path, capsys, key, value):
    # a key the solve does not read must not be dropped without a word:
    # the file would then solve a different problem than it states
    doc = _plain_scalar_doc()
    doc[key] = value
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=key):
        parse_problem(str(problem))
    assert main(["solve", "--input", str(problem),
                 "--out-dir", str(tmp_path), "--quiet"]) == 3
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--gamma", "1"], ["solve", "--bogus"],
    ["solve", "--tol-rank", "1e-9"], ["verify", "--tol-residual", "1e-6"],
    ["frobnicate"],
], ids=["gamma-flag", "unknown-flag", "tol-rank-flag", "tol-residual-flag",
        "unknown-command"])
def test_usage_errors_exit_3(tmp_path, argv):
    # exit 2 is a model rejection, so a bad command line must not use it
    problem = tmp_path / "problem.json"
    write_problem(demo_problem(4, 0.125, 0.5), str(problem))
    if argv[0] == "solve":
        argv += ["--input", str(problem), "--out-dir", str(tmp_path)]
    if argv[0] == "verify":
        # a valid solution, so that only the flag can make verify fail
        saved = tmp_path / "saved"
        assert main(["solve", "--input", str(problem), "--out-dir",
                     str(saved), "--quiet"]) == 0
        argv += ["--input", str(problem), "--solution",
                 str(saved / "solution.csv")]
    assert main(argv + ["--quiet"]) == 3
    assert not (tmp_path / "report.txt").exists()


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0


def test_each_subcommand_takes_only_the_options_it_reads():
    # the problem file is the one source of tolerances, and a flag that
    # main does not read is not offered
    sub = next(action for action in _make_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    options = {command: {flag for action in parser._actions
                         for flag in action.option_strings} - {"-h", "--help"}
               for command, parser in sub.choices.items()}
    assert options == {
        "solve": {"--input", "--out-dir", "--quiet"},
        "verify": {"--input", "--solution", "--quiet"},
        "eigen": {"--input", "--out-dir", "--quiet"},
        "example": {"--out-dir", "--quiet"},
    }


def test_missing_input_file_exits_3(tmp_path):
    assert main(["solve", "--input", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path), "--quiet"]) == 3


# ---------------------------------------------------------------- start-up

def test_importing_the_cli_leaves_scipy_out():
    # the package runs on numpy alone, and importing the CLI loads no more
    src = pathlib.Path(singwave.__file__).resolve().parents[1]
    code = "import sys, singwave.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_eigen_and_verify_leave_scipy_out(tmp_path):
    # a None entry in sys.modules makes any import of scipy fail, so
    # solve, eigen and verify all run with scipy blocked
    problem = tmp_path / "problem.json"
    write_problem(demo_problem(4, 0.125, 0.5), str(problem))
    src = pathlib.Path(singwave.__file__).resolve().parents[1]
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "import singwave.cli as cli\n"
            "problem, out = sys.argv[1:]\n"
            "codes = [cli.main(['solve', '--input', problem, '--out-dir',"
            " out, '--quiet']),\n"
            "         cli.main(['eigen', '--input', problem, '--out-dir',"
            " out, '--quiet']),\n"
            "         cli.main(['verify', '--input', problem, '--solution',"
            " out + '/solution.csv', '--quiet'])]\n"
            "print(codes)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code, str(problem), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0, 0]"
