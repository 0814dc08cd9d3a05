"""The independent checker accepts the program's correct outputs and
catches a single wrong node or a wrongly named rejection."""

import json
import os

import numpy as np
import pytest

import checker
import workloads
from singwave.cli import main


def _solve(tmp_path, doc, name="p"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / f"{name}-out"
    code = main(["solve", "--input", str(path), "--out-dir", str(out),
                 "--quiet"])
    return code, str(path), str(out)


def _perturb_node(out, prob, i, j, delta):
    """Rewrite solution.csv with u0 at node (i, j) moved by delta."""
    csv = os.path.join(out, "solution.csv")
    with open(csv, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = 1 + i * (prob["M"] + 1) + j
    cells = lines[row].split(",")
    assert (int(cells[0]), int(cells[1])) == (i, j)
    cells[4] = repr(float(cells[4]) + delta)
    lines[row] = ",".join(cells)
    with open(csv, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("kind", ["scalar", "demo", "coupled"])
def test_accepts_program_output_and_catches_one_wrong_node(tmp_path, kind):
    rng = np.random.default_rng(7)
    doc = {"scalar": lambda: workloads.scalar_wave_problem(rng, 8, 16, 0.5),
           "demo": lambda: workloads.demo_problem(rng, 8, 32, 0.25),
           "coupled": lambda: workloads.coupled_problem(rng, 16, 4, 0.25),
           }[kind]()
    code, path, out = _solve(tmp_path, doc)
    assert code == 0
    prob = checker.read_problem(path)
    errors, U = checker.check_accepted(prob, out)
    assert errors == []
    assert U.shape == (prob["N"] + 1, prob["M"] + 1, prob["m"])
    if kind == "scalar":
        assert checker.march(prob) is not None
    else:
        assert checker.march(prob) is None  # singular E

    _perturb_node(out, prob, prob["N"] // 2, prob["M"] // 2, 1e-6)
    errors, _ = checker.check_accepted(prob, out)
    assert any("interior residual" in e for e in errors), errors
    if kind == "scalar":
        assert any("explicit march" in e for e in errors), errors


def test_catches_wrong_initial_row(tmp_path):
    rng = np.random.default_rng(8)
    code, path, out = _solve(tmp_path,
                             workloads.scalar_wave_problem(rng, 8, 16, 0.5))
    assert code == 0
    prob = checker.read_problem(path)
    _perturb_node(out, prob, 3, 0, 1e-6)
    errors, _ = checker.check_accepted(prob, out)
    assert any("init_pos residual" in e for e in errors), errors


def test_rejections_named_and_wrong_names_caught(tmp_path):
    rng = np.random.default_rng(9)
    conditions = [c for c, _ in workloads.rejection_problems(rng)]
    rng = np.random.default_rng(9)
    for idx, (condition, doc) in enumerate(workloads.rejection_problems(rng)):
        code, _, out = _solve(tmp_path, doc, f"r{idx}")
        assert checker.check_rejected(code, out, condition) == []
        wrong = conditions[(idx + 1) % len(conditions)]
        errors = checker.check_rejected(code, out, wrong)
        assert errors and "expected 'REJECTED: " + wrong in errors[0]


def test_rejection_with_wrong_exit_code_caught(tmp_path):
    rng = np.random.default_rng(10)
    condition, doc = workloads.rejection_problems(rng)[0]
    _, _, out = _solve(tmp_path, doc)
    assert checker.check_rejected(4, out, condition) == [
        "exit code 4, expected 2"]


def test_jordan_block_fails_with_defective_matrix(tmp_path):
    code, path, out = _solve(tmp_path, workloads.jordan_problem())
    assert code == 4
    assert checker.failure_condition(code, out) == "defective-matrix"
    # the explicit scheme itself is well defined there
    V = checker.march(checker.read_problem(path))
    assert V is not None and np.all(np.isfinite(V))


def test_reader_refuses_missing_node(tmp_path):
    rng = np.random.default_rng(11)
    _, path, out = _solve(tmp_path,
                          workloads.scalar_wave_problem(rng, 8, 16, 0.5))
    prob = checker.read_problem(path)
    csv = os.path.join(out, "solution.csv")
    with open(csv, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(csv, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:5] + lines[6:]) + "\n")
    with pytest.raises(ValueError):
        checker.read_solution(csv, prob)
