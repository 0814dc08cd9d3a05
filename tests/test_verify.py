"""Independent residual checks and the marched stacked reference."""

import ast
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import singwave.verify
from singwave.errors import (
    InconsistentSystem,
    SingularLevelOperator,
    SizeCapExceeded,
)
from singwave.fixtures import (
    demo_matrices,
    demo_problem,
    scalar_wave_problem,
)
from singwave.matrix_core import mitra_solve, rank_and_kernel
from singwave.pencil import build_pencil
from singwave.solver import GridParams, ProblemSpec, solve_problem
from singwave.verify import (
    ResidualReport,
    boundary_residual,
    brute_force_reference,
    data_normalizer,
    initial_residual,
    interior_residual,
    reference_deviation,
    residual_report,
)

from conftest import random_real_rank_matrix
from stacked_system import stacked_system

MATRIX_KEYS = ("E", "A", "A1", "A2", "B1", "B2")


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


@pytest.mark.parametrize("position", range(5))
def test_worst_residual_keeps_a_nan(position):
    # the verify gate compares worst with the tolerance; a NaN dropped
    # here would pass it
    defects = [1e-12] * 5
    defects[position] = np.nan
    assert np.isnan(ResidualReport(*defects, normalizer=1.0).worst)


# ------------------------------------------------------ marched reference

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
    # 51 real unknowns per level over 131 073 levels:
    # 64 * 51 * (51 + 131 073) bytes, about 428 MB
    spec = demo_problem(16, 1.0 / 64.0, 2048.0)
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
    # orthogonal to every free direction, which lives at level M
    assert np.abs(Z.conj().T @ ref.U[:, -1].reshape(-1)).max() <= 1e-12 * (
        1.0 + np.abs(ref.U).max())


def test_reference_deviation_ignores_free_directions():
    spec = demo_problem(4, 1.0 / 8.0, 0.5)
    ref = brute_force_reference(spec)
    pd = build_pencil(spec.E, spec.A)
    d = np.random.default_rng(1).standard_normal(ref.kernel.shape[0])
    # a direction the equations do not pin, at the last level
    free = ref.kernel @ (ref.kernel.conj().T @ d)
    shifted = ref.U.copy()
    shifted[:, -1] += free.reshape(ref.U.shape[0], spec.m)
    assert reference_deviation(shifted, ref, pd.projector, spec) <= 1e-9


def test_reference_deviation_keeps_pinned_directions():
    spec = demo_problem(4, 1.0 / 8.0, 0.5)
    ref = brute_force_reference(spec)
    pd = build_pencil(spec.E, spec.A)
    Z = ref.kernel
    d = np.random.default_rng(2).standard_normal(Z.shape[0])
    pinned = d - Z @ (Z.conj().T @ d)
    for level in (-1, -2):
        shifted = ref.U.copy()
        shifted[:, level] += 1e-3 * pinned.reshape(-1, spec.m)
        assert reference_deviation(shifted, ref, pd.projector, spec) > 1e-5


def assert_march_matches_stack(spec):
    """The marched reference against the minimum-norm solve of the dense
    stacked system: the same grid, the same kernel (the dense one
    vanishes below level M) and the stack's own residual."""
    ref = brute_force_reference(spec)
    K, b = stacked_system(spec)
    dense = mitra_solve(K, b, tol=1e-9)
    assert dense.consistent
    N, M, m = spec.grid.N, spec.grid.M, spec.m
    U = dense.particular.reshape(N + 1, M + 1, m)
    assert np.abs(ref.U - U).max() <= 1e-10 * (1.0 + np.abs(U).max())
    q = dense.kernel.shape[1]
    assert ref.kernel.shape == (m * (N + 1), q)
    Z = dense.kernel.reshape(N + 1, M + 1, m, q)
    assert np.abs(Z[:, :M]).max(initial=0.0) <= 1e-10
    Z = Z[:, M].reshape(m * (N + 1), q)
    assert_allclose(ref.kernel @ ref.kernel.conj().T, Z @ Z.conj().T,
                    atol=1e-10)
    scale = 1.0 + np.abs(b).sum()
    assert ref.residual <= 1e-9 * scale
    stack_residual = np.abs(K @ ref.U.reshape(-1) - b).sum()
    assert abs(ref.residual - stack_residual) <= 1e-12 * scale


def coupled_demo(rng):
    """Two demo systems side by side, seen through a random orthogonal
    change of variables u = Q v, so that all m = 6 components couple."""
    spec = demo_problem(4, 1.0 / 8.0, 0.5)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    mats = {key: Q @ np.kron(np.eye(2), getattr(spec, key)) @ Q.T
            for key in MATRIX_KEYS}
    return SimpleNamespace(
        m=6, grid=spec.grid, F=np.hstack([spec.F, 0.5 * spec.F]) @ Q.T,
        Gv=np.hstack([spec.Gv, -spec.Gv]) @ Q.T, **mats)


def demo_matrices_n2():
    """The demo's coefficients on a grid with one interior node, with
    zero data (the demo's own data need N >= 3)."""
    mats = demo_matrices()
    return SimpleNamespace(m=3, grid=GridParams.create(2, 0.125, 0.5),
                           F=np.zeros((3, 3)), Gv=np.zeros((3, 3)),
                           **{key: mats[key] for key in MATRIX_KEYS})


def random_singular(rng, rank):
    """Random real coefficients around an E of the given rank, with zero
    data; N = 3, M = 4."""
    m = 3
    mats = {key: rng.standard_normal((m, m)) for key in MATRIX_KEYS}
    mats["E"] = random_real_rank_matrix(rng, m, m, rank)
    return SimpleNamespace(m=m, grid=GridParams.create(3, 0.125, 0.5),
                           F=np.zeros((4, m)), Gv=np.zeros((4, m)), **mats)


def with_consistent_data(spec, rng):
    """The spec with random data from the null space of the data rows:
    levels 0 and 1 that the rest of the stack can complete, found from
    the dense stack alone."""
    N, M, m, k = spec.grid.N, spec.grid.M, spec.m, spec.grid.k
    K, _ = stacked_system(spec)
    rows = K.shape[0] - 2 * m * (N + 1)  # every row but the initial ones
    data = np.arange(K.shape[1]) // m % (M + 1) <= 1
    _, complement = rank_and_kernel(K[:rows, ~data].conj().T)
    _, free = rank_and_kernel(complement.conj().T @ K[:rows, data])
    assert free.shape[1] > 0
    u = (free @ rng.standard_normal(free.shape[1])).reshape(N + 1, 2, m)
    return SimpleNamespace(**{**vars(spec), "F": u[:, 0],
                              "Gv": (u[:, 1] - u[:, 0]) / k})


@pytest.mark.parametrize("make", [
    lambda rng: scalar_wave_problem(),
    lambda rng: demo_problem(4, 1.0 / 8.0, 0.5),
    coupled_demo,
    lambda rng: demo_problem(4, 1.0 / 8.0, 1.0 / 8.0),   # M = 1
    lambda rng: scalar_wave_problem(4, 0.1, 0.1),        # M = 1
    lambda rng: demo_problem(4, 1.0 / 8.0, 0.25),        # M = 2
    lambda rng: scalar_wave_problem(2, 0.1, 0.4),        # N = 2
    lambda rng: with_consistent_data(demo_matrices_n2(), rng),
    lambda rng: random_singular(rng, 2),
    lambda rng: random_singular(rng, 1),
    lambda rng: with_consistent_data(random_singular(rng, 2), rng),
    lambda rng: with_consistent_data(random_singular(rng, 1), rng),
    lambda rng: with_consistent_data(random_singular(rng, 0), rng),
], ids=["scalar", "demo", "coupled-m6", "demo-M1", "scalar-M1", "demo-M2",
        "scalar-N2", "demo-N2", "rank2-zero-data", "rank1-zero-data",
        "rank2-data", "rank1-data", "rank0-data"])
def test_march_matches_dense_stack(make, rng):
    assert_march_matches_stack(make(rng))


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_march_and_dense_stack_reject_inconsistent_data(rank, rng):
    spec = random_singular(rng, rank)
    spec.F = rng.standard_normal(spec.F.shape)
    spec.Gv = rng.standard_normal(spec.Gv.shape)
    K, b = stacked_system(spec)
    assert not mitra_solve(K, b, tol=1e-9).consistent
    with pytest.raises(InconsistentSystem, match="levels 0 and 1"):
        brute_force_reference(spec)


def test_march_and_dense_stack_reject_late_inconsistency():
    # A1 = N*A2 leaves the left endpoint row only u(1) = 0, which the
    # stencil also fixes, and leaves u(0) in no row but the initial
    # ones: data with u(0) = 1 pass levels 0 and 1 and break level 2
    one = np.eye(1)
    spec = SimpleNamespace(
        m=1, E=one, A=one, A1=2.0 * one, A2=one, B1=one, B2=0.0 * one,
        F=np.array([[1.0], [0.0], [0.0]]), Gv=np.zeros((3, 1)),
        grid=GridParams.create(2, 0.25, 0.5))
    K, b = stacked_system(spec)
    assert not mitra_solve(K, b, tol=1e-9).consistent
    with pytest.raises(InconsistentSystem, match="from level 2"):
        brute_force_reference(spec)


def test_reference_agrees_with_solver_at_realistic_size():
    spec = demo_problem(64, 1.0 / 256.0, 1.0)  # 3*65*257 = 50 115 unknowns
    sol = solve_problem(spec)
    ref = brute_force_reference(spec)
    pd = build_pencil(spec.E, spec.A)
    assert reference_deviation(sol.U, ref, pd.projector, spec) <= 1e-6


def test_reference_rejects_singular_level_operator():
    # E and A both annihilate u2, so it enters no stencil row; the
    # clamped ends pin only its end values, and its interior values are
    # free at every level
    zero, eye = np.zeros((2, 2)), np.eye(2)
    spec = SimpleNamespace(
        m=2, E=np.diag([1.0, 0.0]), A=np.diag([1.0, 0.0]), A1=eye, A2=zero,
        B1=eye, B2=zero, F=np.zeros((5, 2)), Gv=np.zeros((5, 2)),
        grid=GridParams.create(4, 0.1, 0.4))
    K, b = stacked_system(spec)
    dense = mitra_solve(K, b, tol=1e-9)
    # the dense stack's kernel reaches below the last level
    Z = dense.kernel.reshape(5, 5, 2, -1)
    assert np.abs(Z[:, 2]).max() > 0.1
    with pytest.raises(SingularLevelOperator):
        brute_force_reference(spec)


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
