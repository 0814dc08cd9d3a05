"""Problem validation, admissibility gates, mode amplitudes, assembly."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from singwave.errors import (
    BoundaryExtensionInconsistent,
    SingwaveError,
    ConsistencyViolation,
    NonFiniteValue,
    ParseError,
    RankFull,
    ShapeError,
)
from singwave.fixtures import (
    _with_boundary,
    demo_matrices,
    demo_problem,
    reject_full_rank,
    reject_kernel_violation,
    reject_projector_mismatch,
    reject_rho_degenerate,
    scalar_wave_problem,
)
from singwave.pencil import build_pencil, build_propagators
from singwave.solver import (
    ConsistencyReport,
    GridParams,
    ModeAmplitudes,
    ProblemSpec,
    assemble_solution,
    build_boundary_matrix,
    check_consistency,
    raise_on_inconsistency,
    solve_mode_coefficients,
    solve_problem,
)
from singwave.sturm_liouville import SLProblem, solve_psd
from singwave.verify import residual_report


# ------------------------------------------------------------------ grid

def test_grid_params_demo():
    grid = GridParams.create(8, 1.0 / 32.0, 1.0)
    assert grid.M == 32
    assert_allclose(grid.r, 0.25, atol=1e-15)
    assert_allclose(grid.T, grid.M * grid.k, atol=1e-15)


def test_grid_params_rejects_bad_inputs():
    with pytest.raises(ParseError):
        GridParams.create(1, 0.1, 1.0)
    with pytest.raises(ParseError):
        GridParams.create(4, 0.0, 1.0)
    with pytest.raises(ParseError):
        GridParams.create(4, 0.1, -1.0)
    with pytest.raises(ParseError):
        GridParams.create(4, 0.3, 1.0)  # 1/0.3 is not an integer
    with pytest.raises(ParseError):
        GridParams.create(4, np.nan, 1.0)


# ------------------------------------------------------------ problem spec

def _zero_data_spec(mats=None, N=4, k=0.125, T=0.5, **overrides):
    mats = dict(mats or demo_matrices())
    mats.update(overrides)
    grid = GridParams.create(N, k, T)
    Z = np.zeros((N + 1, 3), dtype=complex)
    return ProblemSpec(m=3, E=mats["E"], A=mats["A"], A1=mats["A1"],
                       A2=mats["A2"], B1=mats["B1"], B2=mats["B2"],
                       alpha=mats["alpha"], beta=mats["beta"],
                       F=Z.copy(), Gv=Z.copy(), grid=grid)


def test_problem_spec_shape_validation():
    mats = demo_matrices()
    grid = GridParams.create(4, 0.125, 0.5)
    Z = np.zeros((5, 3), dtype=complex)
    with pytest.raises(ShapeError):
        ProblemSpec(m=3, E=np.eye(2), A=mats["A"], A1=mats["A1"],
                    A2=mats["A2"], B1=mats["B1"], B2=mats["B2"],
                    alpha=2.0, beta=1.0, F=Z, Gv=Z, grid=grid)
    with pytest.raises(ShapeError):
        ProblemSpec(m=3, E=mats["E"], A=mats["A"], A1=mats["A1"],
                    A2=mats["A2"], B1=mats["B1"], B2=mats["B2"],
                    alpha=2.0, beta=1.0, F=Z[:3], Gv=Z, grid=grid)


def test_problem_spec_rejects_non_finite_data():
    mats = demo_matrices()
    grid = GridParams.create(4, 0.125, 0.5)
    Z = np.zeros((5, 3), dtype=complex)
    bad = Z.copy()
    bad[2, 1] = np.nan
    with pytest.raises(NonFiniteValue):
        ProblemSpec(m=3, E=mats["E"], A=mats["A"], A1=mats["A1"],
                    A2=mats["A2"], B1=mats["B1"], B2=mats["B2"],
                    alpha=2.0, beta=1.0, F=bad, Gv=Z, grid=grid)


def test_mode_rho_default_and_override():
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    lam = 0.5
    assert_allclose(spec.mode_rho(1, lam), -spec.grid.r ** 2 * lam,
                    atol=1e-15)
    assert spec.mode_rho(1, 0.0) == 0.0  # normalized, not -0.0
    modes, lams = np.arange(1, 8), np.linspace(0.0, 3.0, 7)
    rhos = spec.mode_rho(modes, lams)  # all modes in one call
    assert np.array_equal(rhos, [spec.mode_rho(l, x)
                                 for l, x in zip(modes, lams)])
    assert not np.signbit(rhos[0])
    spec = dataclasses.replace(spec, rho_override=-0.2)
    assert spec.mode_rho(3, lam) == -0.2
    assert np.array_equal(spec.mode_rho(modes, lams), np.full(7, -0.2))
    spec = dataclasses.replace(spec,
                               rho_override=[-0.1 * l for l in range(1, 8)])
    assert spec.mode_rho(2, lam) == -0.2
    assert np.array_equal(spec.mode_rho(modes, lams), spec.rho_override)


# -------------------------------------------------------- endpoint matrix

def test_boundary_matrix_zero_when_scalars_match():
    mats = demo_matrices()
    spec = _zero_data_spec(mats,
                           A2=mats["alpha"] * mats["A1"],
                           B2=mats["beta"] * mats["B1"])
    bm = build_boundary_matrix(spec)
    assert bm.rank == 0
    assert bm.kernel.shape == (3, 3)
    assert_allclose(bm.Gab, 0.0, atol=1e-14)


def test_boundary_matrix_demo_kernel():
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    bm = build_boundary_matrix(spec)
    assert bm.Gab.shape == (6, 3)
    assert bm.rank == 1
    assert bm.kernel.shape == (3, 2)
    assert_allclose(bm.Gab @ bm.kernel, 0.0, atol=1e-12)
    # the kernel is the first-two-components subspace
    span_check = bm.kernel @ (bm.kernel.conj().T @ np.eye(3)[:, :2])
    assert_allclose(span_check, np.eye(3)[:, :2], atol=1e-12)


def test_boundary_matrix_full_rank_rejected():
    with pytest.raises(RankFull):
        build_boundary_matrix(reject_full_rank(4, 0.125, 0.5))


# ----------------------------------------------------------- admissibility

def test_consistency_demo_passes():
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    pd = build_pencil(spec.E, spec.A)
    bm = build_boundary_matrix(spec)
    report = check_consistency(spec, pd, bm)
    assert report.passed
    assert report.projector_defect <= 1e-12 * report.scale
    assert report.kernel_defect <= 1e-12 * report.scale
    assert report.invariance_defect <= 1e-12


def test_consistency_zero_data_passes():
    spec = _zero_data_spec()
    pd = build_pencil(spec.E, spec.A)
    bm = build_boundary_matrix(spec)
    assert check_consistency(spec, pd, bm).passed


def test_consistency_flags_projector_mismatch():
    spec = reject_projector_mismatch(8, 1.0 / 32.0, 1.0)
    pd = build_pencil(spec.E, spec.A)
    bm = build_boundary_matrix(spec)
    report = check_consistency(spec, pd, bm)
    assert not report.projector_fixes_data
    assert report.projector_defect > 0.5


def test_consistency_flags_kernel_violation():
    spec = reject_kernel_violation(8, 1.0 / 32.0, 1.0)
    pd = build_pencil(spec.E, spec.A)
    bm = build_boundary_matrix(spec)
    report = check_consistency(spec, pd, bm)
    assert report.projector_fixes_data
    assert not report.data_in_kernel
    assert report.kernel_defect > 0.1


def test_raise_on_inconsistency_slugs():
    base = dict(projector_fixes_data=True, projector_defect=0.0,
                data_in_kernel=True, kernel_defect=0.0,
                kernel_invariant=True, invariance_defect=0.0, scale=1.0)
    raise_on_inconsistency(ConsistencyReport(**base))  # no raise
    with pytest.raises(ConsistencyViolation) as info:
        raise_on_inconsistency(ConsistencyReport(
            **{**base, "projector_fixes_data": False}))
    assert info.value.condition == "projector-data-mismatch"
    with pytest.raises(ConsistencyViolation) as info:
        raise_on_inconsistency(ConsistencyReport(
            **{**base, "data_in_kernel": False}))
    assert info.value.condition == "data-outside-boundary-kernel"
    with pytest.raises(ConsistencyViolation) as info:
        raise_on_inconsistency(ConsistencyReport(
            **{**base, "kernel_invariant": False}))
    assert info.value.condition == "boundary-kernel-not-invariant"


# ---------------------------------------------------------- mode amplitudes

def test_mode_coefficients_zero_data():
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    pd = build_pencil(spec.E, spec.A)
    pairs = solve_psd(spec.sl_problem())
    prop = build_propagators(pd, [spec.mode_rho(3, pairs[2].lam)],
                             mode_index=3)
    z = np.zeros((1, 3), dtype=complex)
    amps = solve_mode_coefficients(spec, pd, prop, fhat=z, ghat=z)
    assert amps.mode_index == 3
    assert amps.P.shape == amps.Q.shape == (1, 3)
    assert_allclose(amps.P, 0.0, atol=1e-14)
    assert_allclose(amps.Q, 0.0, atol=1e-14)
    assert amps.residual.shape == amps.rho.shape == (1,)
    assert amps.residual[0] <= 1e-14
    assert amps.rho[0] == spec.mode_rho(3, pairs[2].lam)


def test_mode_coefficients_branch_equations():
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    pd = build_pencil(spec.E, spec.A)
    pairs = solve_psd(spec.sl_problem())
    # the first component sits on the reduced operator's zero eigenvalue,
    # where both branch roots equal one: it must agree between the levels
    fhat = np.array([0.4, -0.3, 0.0], dtype=complex)
    ghat = np.array([0.4, -0.28, 0.0], dtype=complex)
    # every mode above the static first one is solved in one call
    rhos = [spec.mode_rho(l, pairs[l - 1].lam) for l in range(2, 8)]
    prop = build_propagators(pd, rhos, mode_index=2)
    modes = len(rhos)
    amps = solve_mode_coefficients(spec, pd, prop,
                                   fhat=np.tile(fhat, (modes, 1)),
                                   ghat=np.tile(ghat, (modes, 1)))
    assert amps.mode_index == 2
    assert amps.P.shape == (modes, 3)
    assert_allclose(amps.rho, rhos, rtol=0, atol=0)
    assert_allclose(amps.P + amps.Q, np.tile(fhat, (modes, 1)), atol=1e-9)
    step = prop.Z0 @ amps.P[..., None] + prop.Z1 @ amps.Q[..., None]
    assert_allclose(step[..., 0], np.tile(ghat, (modes, 1)), atol=1e-9)


def test_mode_coefficients_static_direction_mismatch():
    # first-level data moving along the static eigendirection cannot be
    # produced by any branch amplitudes
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    pd = build_pencil(spec.E, spec.A)
    pairs = solve_psd(spec.sl_problem())
    fhat = np.array([[0.4, -0.3, 0.0]], dtype=complex)
    ghat = np.array([[0.35, -0.28, 0.0]], dtype=complex)
    prop = build_propagators(pd, [spec.mode_rho(4, pairs[3].lam)],
                             mode_index=4)
    with pytest.raises(ConsistencyViolation) as info:
        solve_mode_coefficients(spec, pd, prop, fhat=fhat, ghat=ghat)
    assert info.value.condition == "mode-equations-unsolvable"
    assert "mode 4 " in str(info.value)


def test_single_mode_data_isolates_one_mode():
    N, k, T = 8, 1.0 / 32.0, 0.25
    mats = demo_matrices()
    pairs = solve_psd(SLProblem(N, mats["alpha"], mats["beta"]))
    F_int = np.zeros((N - 1, 3), dtype=complex)
    F_int[:, 1] = pairs[1].v  # pure second mode in an admissible component
    spec = ProblemSpec(m=3, E=mats["E"], A=mats["A"], A1=mats["A1"],
                       A2=mats["A2"], B1=mats["B1"], B2=mats["B2"],
                       alpha=mats["alpha"], beta=mats["beta"],
                       F=_with_boundary(F_int, mats),
                       Gv=np.zeros((N + 1, 3), dtype=complex),
                       grid=GridParams.create(N, k, T))
    amps = solve_problem(spec).modes
    assert amps.mode_index == 1
    assert_allclose(amps.P[1] + amps.Q[1], [0, 1, 0], atol=1e-9)
    others = np.delete(np.abs(amps.P) + np.abs(amps.Q), 1, axis=0)
    assert others.sum(axis=1).max() <= 1e-9


# ----------------------------------------------------------------- assembly

def test_solution_matches_initial_data():
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    sol = solve_problem(spec)
    N = spec.grid.N
    assert_allclose(sol.U[1:N, 0], spec.F[1:N], atol=1e-9)
    assert residual_report(sol.U, spec).init_pos_max <= 1e-10


def test_solution_first_step_velocity():
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    sol = solve_problem(spec)
    N, k = spec.grid.N, spec.grid.k
    vel = (sol.U[1:N, 1] - sol.U[1:N, 0]) / k
    assert_allclose(vel, spec.Gv[1:N], atol=1e-8)


def test_solution_zero_data_is_zero():
    sol = solve_problem(_zero_data_spec())
    assert_allclose(sol.U, 0.0, atol=1e-14)
    stab = sol.reports["stability"]
    assert stab.sup_norm == 0.0
    assert stab.bounded


def test_solution_stays_in_boundary_kernel():
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    sol = solve_problem(spec)
    bm = build_boundary_matrix(spec)
    N = spec.grid.N
    interior = sol.U[1:N].reshape(-1, spec.m)
    assert np.abs(interior @ bm.Gab.T).max() <= 1e-9
    pd = build_pencil(spec.E, spec.A)
    proj_defect = np.abs(interior @ pd.projector.T - interior).max()
    assert proj_defect <= 1e-9


def test_solution_linear_superposition():
    N, k, T = 8, 1.0 / 32.0, 0.5
    spec = demo_problem(N, k, T)
    mats = demo_matrices()

    def sub_spec(F_int, G_int):
        return ProblemSpec(m=3, E=mats["E"], A=mats["A"], A1=mats["A1"],
                           A2=mats["A2"], B1=mats["B1"], B2=mats["B2"],
                           alpha=mats["alpha"], beta=mats["beta"],
                           F=_with_boundary(F_int, mats),
                           Gv=_with_boundary(G_int, mats),
                           grid=GridParams.create(N, k, T))

    F_int = spec.F[1:N].copy()
    G_int = spec.Gv[1:N].copy()
    first = np.zeros_like(F_int)
    first[:, 0] = F_int[:, 0]
    second = np.zeros_like(F_int)
    second[:, 1] = F_int[:, 1]
    U_full = solve_problem(spec).U
    U_a = solve_problem(sub_spec(first, np.zeros_like(G_int))).U
    U_b = solve_problem(sub_spec(second, G_int)).U
    assert_allclose(U_a + U_b, U_full, atol=1e-10)


def test_solution_scaling_equivariance():
    spec = demo_problem(8, 1.0 / 32.0, 0.5)
    U = solve_problem(spec).U
    for c in (1e3, 1e-3):
        scaled = ProblemSpec(
            m=spec.m, E=spec.E, A=spec.A, A1=spec.A1, A2=spec.A2,
            B1=spec.B1, B2=spec.B2, alpha=spec.alpha, beta=spec.beta,
            F=c * spec.F, Gv=c * spec.Gv, grid=spec.grid)
        Uc = solve_problem(scaled).U
        assert_allclose(Uc, c * U, atol=1e-8 * c)


def _jordan_problem() -> ProblemSpec:
    """E = I, A = [[1, 1], [0, 1]] with clamped ends: the reduced operator
    has no eigenvector basis."""
    N = 8
    x = np.arange(N + 1) / N
    F = np.stack([np.sin(np.pi * x), x * (1.0 - x)], axis=1)
    Gv = np.stack([0.5 * np.sin(2 * np.pi * x), np.sin(np.pi * x)], axis=1)
    eye, zero = np.eye(2), np.zeros((2, 2))
    return ProblemSpec(m=2, E=eye, A=np.array([[1.0, 1.0], [0.0, 1.0]]),
                       A1=eye, A2=zero, B1=eye, B2=zero, alpha=0.0,
                       beta=0.0, F=F, Gv=Gv,
                       grid=GridParams.create(N, 1.0 / 16.0, 1.0))


@pytest.mark.parametrize("make, expected", [
    (demo_problem, "accepted"),
    (scalar_wave_problem, "accepted"),
    (_jordan_problem, "accepted"),
    (reject_projector_mismatch, "projector-data-mismatch"),
    (reject_kernel_violation, "data-outside-boundary-kernel"),
    (reject_full_rank, "boundary-matrix-full-rank"),
    (reject_rho_degenerate, "rho-degenerate"),
])
def test_outcome_invariant_under_rescaling(make, expected):
    # scaling E and A together, or the data, changes no decision
    spec = make()
    for coef in (1e-6, 1.0, 1e6):
        for data in (1e-6, 1.0, 1e6):
            scaled = ProblemSpec(
                m=spec.m, E=coef * spec.E, A=coef * spec.A, A1=spec.A1,
                A2=spec.A2, B1=spec.B1, B2=spec.B2, alpha=spec.alpha,
                beta=spec.beta, F=data * spec.F, Gv=data * spec.Gv,
                grid=spec.grid)
            try:
                solve_problem(scaled)
                outcome = "accepted"
            except SingwaveError as exc:
                outcome = exc.condition
            assert outcome == expected, (coef, data)


def test_boundary_extension_inconsistency_detected():
    N = 2
    grid = GridParams.create(N, 0.25, 0.5)
    one = np.array([[1.0]], dtype=complex)
    spec = ProblemSpec(m=1, E=one, A=one,
                       A1=np.array([[float(N)]], dtype=complex),
                       A2=one, B1=one,
                       B2=np.array([[0.0]], dtype=complex),
                       alpha=0.0, beta=0.0,
                       F=np.zeros((N + 1, 1), dtype=complex),
                       Gv=np.zeros((N + 1, 1), dtype=complex), grid=grid)
    # A1 - N*A2 == 0 while A2 couples to a nonzero interior trace, so no
    # left endpoint value can satisfy the discrete boundary relation
    pairs = solve_psd(SLProblem(N))
    pd = build_pencil(one, one, gamma=0.0)
    props = build_propagators(pd, [-0.1], mode_index=1)
    amps = ModeAmplitudes(1, np.array([[0.5 + 0j]]), np.array([[0.5 + 0j]]),
                          np.array([-0.1]), np.array([0.0]))
    with pytest.raises(BoundaryExtensionInconsistent) as info:
        assemble_solution(spec, props, amps, pairs)
    assert "left endpoint relation unsolvable at step j=0" in str(info.value)


# ---------------------------------------------------------------- stability

def test_stability_demo_report():
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    sol = solve_problem(spec)
    stab = sol.reports["stability"]
    assert stab.growth_rate <= 1e-10
    assert stab.power_bound_ok
    assert stab.bounded
    assert stab.sup_norm <= stab.envelope
    for row in stab.modes:
        assert row.bound_ok
        assert row.max_power_norm_plus <= 1.0 + 1e-10
        assert row.max_power_norm_minus <= 1.0 + 1e-10


def test_stability_scalar_wave():
    sol = solve_problem(scalar_wave_problem())
    stab = sol.reports["stability"]
    assert stab.bounded
    assert abs(stab.growth_rate) <= 1e-10


# --------------------------------------------------------------- pipeline

def test_solve_problem_trace_on_success():
    trace = {}
    solve_problem(demo_problem(8, 1.0 / 32.0, 0.5), trace=trace)
    for key in ("eigenpairs", "pencil", "boundary", "consistency",
                "modes", "stability", "solution"):
        assert key in trace


def test_solve_problem_trace_on_rejection():
    trace = {}
    with pytest.raises(ConsistencyViolation) as info:
        solve_problem(reject_projector_mismatch(8, 1.0 / 32.0, 1.0),
                      trace=trace)
    assert info.value.condition == "projector-data-mismatch"
    for key in ("eigenpairs", "pencil", "boundary", "consistency"):
        assert key in trace
    assert "modes" not in trace
    assert "solution" not in trace


def test_solution_reconstructs_from_modes():
    spec = demo_problem(8, 1.0 / 32.0, 0.5)
    sol = solve_problem(spec)
    pairs = solve_psd(spec.sl_problem())
    N, M = spec.grid.N, spec.grid.M
    pd = build_pencil(spec.E, spec.A)
    # rebuild step j=M from the stored amplitudes and fresh propagators
    rebuilt = np.zeros((N - 1, spec.m), dtype=complex)
    amps = sol.modes
    for idx, rho in enumerate(amps.rho):
        prop = build_propagators(pd, rho, require_invertible_difference=False)
        amp = (np.linalg.matrix_power(prop.Z0, M) @ amps.P[idx]
               + np.linalg.matrix_power(prop.Z1, M) @ amps.Q[idx])
        rebuilt += np.outer(pairs[amps.mode_index + idx - 1].v, amp)
    assert_allclose(rebuilt, sol.U[1:N, M], atol=1e-9)
