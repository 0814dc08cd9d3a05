"""Independent residual checks and the dense brute-force reference."""

import ast
import pathlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

import singwave.verify
from singwave.errors import InconsistentSystem, SizeCapExceeded
from singwave.fixtures import demo_problem, scalar_wave_problem
from singwave.pencil import build_pencil
from singwave.solver import ProblemSpec, solve_problem
from singwave.verify import (
    boundary_residual,
    brute_force_reference,
    data_normalizer,
    initial_residual,
    interior_residual,
    reference_deviation,
    residual_report,
)


def respec(spec, **overrides):
    fields = dict(m=spec.m, E=spec.E, A=spec.A, A1=spec.A1, A2=spec.A2,
                  B1=spec.B1, B2=spec.B2, alpha=spec.alpha, beta=spec.beta,
                  F=spec.F, Gv=spec.Gv, grid=spec.grid)
    fields.update(overrides)
    return ProblemSpec(**fields)


# ------------------------------------------------------------- normalizer

def test_data_normalizer_formula():
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    fmax = np.abs(spec.F).sum(axis=1).max()
    gmax = np.abs(spec.Gv).sum(axis=1).max()
    assert_allclose(data_normalizer(spec),
                    1.0 + max(fmax, spec.grid.k * gmax), atol=1e-15)
    assert data_normalizer(spec) > 1.0


# ------------------------------------------------------ residual operators

def test_interior_residual_zero_grids():
    spec = demo_problem(8, 1.0 / 32.0, 0.5)
    shape = (spec.grid.N + 1, spec.grid.M + 1, spec.m)
    assert interior_residual(np.zeros(shape), spec.E, spec.A,
                             spec.grid) == 0.0
    const = np.ones(shape, dtype=complex) * np.array([1.0, -2.0, 0.5])
    assert_allclose(interior_residual(const, spec.E, spec.A, spec.grid),
                    0.0, atol=1e-14)


def test_interior_residual_trivial_time_grid():
    spec = scalar_wave_problem(4, 0.25, 0.25)  # single time step: no rows
    U = np.random.default_rng(0).standard_normal((5, 2, 1))
    assert interior_residual(U, spec.E, spec.A, spec.grid) == 0.0


def test_interior_residual_detects_perturbation():
    spec = demo_problem(8, 1.0 / 32.0, 0.5)
    sol = solve_problem(spec)
    base = residual_report(sol.U, spec)
    assert base.interior_max <= 1e-12
    U = sol.U.copy()
    U[3, 2, 1] += 1e-3
    tampered = interior_residual(U, spec.E, spec.A, spec.grid,
                                 data_normalizer(spec))
    assert tampered > 1e-5


def test_boundary_residual_detects_perturbation():
    spec = demo_problem(8, 1.0 / 32.0, 0.5)
    sol = solve_problem(spec)
    left0, right0 = boundary_residual(sol.U, spec)
    assert left0 <= 1e-12 and right0 <= 1e-12
    U = sol.U.copy()
    U[0, 2, 0] += 1e-3
    left1, _ = boundary_residual(U, spec)
    assert left1 > 1e-6
    U = sol.U.copy()
    U[spec.grid.N, 3, 1] += 1e-3
    _, right1 = boundary_residual(U, spec)
    assert right1 > 1e-6


def test_initial_residual_detects_perturbation():
    spec = demo_problem(8, 1.0 / 32.0, 0.5)
    sol = solve_problem(spec)
    pos0, vel0 = initial_residual(sol.U, spec)
    assert pos0 <= 1e-12 and vel0 <= 1e-10
    U = sol.U.copy()
    U[4, 0, 0] += 1e-3
    pos1, vel1 = initial_residual(U, spec)
    assert pos1 > 1e-5
    assert vel1 > 1e-4  # velocity divides the defect by k


def test_residual_report_solver_output():
    for spec in (demo_problem(8, 1.0 / 32.0, 1.0), scalar_wave_problem()):
        rep = residual_report(solve_problem(spec).U, spec)
        assert rep.worst <= 1e-8
        assert rep.normalizer >= 1.0


# -------------------------------------------------------- dense reference

def test_brute_force_zero_data():
    spec = respec(scalar_wave_problem(),
                  F=np.zeros((5, 1)), Gv=np.zeros((5, 1)))
    ref = brute_force_reference(spec)
    assert_allclose(ref.U, 0.0, atol=1e-12)
    assert ref.residual <= 1e-12


def test_brute_force_matches_spectral_scalar():
    spec = scalar_wave_problem()
    sol = solve_problem(spec)
    ref = brute_force_reference(spec)
    assert ref.residual <= 1e-9
    pd = build_pencil(spec.E, spec.A)
    dev = reference_deviation(sol.U, ref, pd.projector, spec)
    assert dev <= 1e-6


def test_brute_force_matches_spectral_demo():
    spec = demo_problem(4, 1.0 / 8.0, 0.5)
    sol = solve_problem(spec)
    ref = brute_force_reference(spec)
    pd = build_pencil(spec.E, spec.A)
    dev = reference_deviation(sol.U, ref, pd.projector, spec)
    assert dev <= 1e-6


def test_brute_force_reference_self_deviation():
    spec = scalar_wave_problem()
    ref = brute_force_reference(spec)
    pd = build_pencil(spec.E, spec.A)
    assert reference_deviation(ref.U, ref, pd.projector, spec) <= 1e-12


def test_brute_force_size_cap():
    spec = demo_problem(16, 1.0 / 64.0, 1.0)  # 3*17*65 = 3315 unknowns
    with pytest.raises(SizeCapExceeded):
        brute_force_reference(spec)


def test_brute_force_inconsistent_data():
    spec = scalar_wave_problem()
    F = spec.F.copy()
    F[0, 0] = 1.0  # clamped end cannot hold a nonzero initial value
    with pytest.raises(InconsistentSystem):
        brute_force_reference(respec(spec, F=F))


def test_reference_is_minimum_norm_solution():
    spec = demo_problem(4, 1.0 / 8.0, 0.5)
    ref = brute_force_reference(spec)
    Z = ref.kernel
    assert Z.dtype == np.float64  # real coefficients: a real SVD
    assert Z.shape[1] > 0
    assert_allclose(Z.conj().T @ Z, np.eye(Z.shape[1]), atol=1e-12)
    # orthogonal to every free direction
    assert np.abs(Z.conj().T @ ref.U.reshape(-1)).max() <= 1e-12 * (
        1.0 + np.abs(ref.U).max())


def test_reference_deviation_ignores_free_directions():
    spec = demo_problem(4, 1.0 / 8.0, 0.5)
    ref = brute_force_reference(spec)
    pd = build_pencil(spec.E, spec.A)
    d = np.random.default_rng(1).standard_normal(ref.U.size)
    # a direction the equations do not pin
    free = ref.kernel @ (ref.kernel.conj().T @ d)
    shifted = ref.U + free.reshape(ref.U.shape)
    assert reference_deviation(shifted, ref, pd.projector, spec) <= 1e-9


# ------------------------------------------------------------ architecture

def test_verify_module_is_independent_of_the_solver():
    # the oracle must not share code with the construction it checks
    source = pathlib.Path(singwave.verify.__file__).read_text()
    tree = ast.parse(source)
    absolute, relative = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            (relative if node.level else absolute).add(node.module or "")
    assert absolute <= {"__future__", "dataclasses", "numpy"}
    assert relative <= {"errors", "matrix_core"}
