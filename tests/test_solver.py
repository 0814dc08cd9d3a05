"""Problem validation, admissibility gates, mode amplitudes, assembly."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from singwave.errors import (
    SingwaveError,
    ConsistencyViolation,
    InputError,
    NonFiniteValue,
    ParseError,
    RankFull,
    ShapeError,
    Gate,
    admit,
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
    DiscreteSolution,
    GridParams,
    ProblemSpec,
    build_boundary_matrix,
    check_consistency,
    solve_mode_coefficients,
    solve_problem,
)
from singwave.sturm_liouville import SLProblem, expand, solve_psd
from singwave.verify import residual_report

from power_norms import power_norms
from random_matrices import make_rng, random_orthogonal, random_unitary
from rotated_demo import rotated_demos
from stepped_assembly import stepped_assembly


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


@pytest.mark.parametrize("E, message", [
    ([[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]],
     '"E" must have shape (3, 3), got uneven rows'),
    ([["1", 0, 0], [0, 1, 0], [0, 0, 1]],
     '"E" entries must be numbers, got <U21'),
    (np.eye(2), '"E" must have shape (3, 3), got (2, 2)'),
    (np.diag([np.nan, 1.0, 1.0]), '"E" contains non-finite entries'),
    ([[1.0, True, 0], [0, 1, 0], [0, 0, 1]],
     '"E" entries must be numbers, got bool'),
], ids=["uneven-rows", "string-cell", "shape", "nan",
        "boolean-among-numbers"])
def test_problem_spec_names_the_bad_table(E, message):
    # the CLI prints these messages, so they are kept word for word
    with pytest.raises(InputError) as info:
        _zero_data_spec(E=E)
    assert str(info.value) == message


def test_mode_rho_default_and_override():
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    lam = 0.5
    assert_allclose(spec.mode_rho(lam), -spec.grid.r ** 2 * lam, atol=1e-15)
    assert spec.mode_rho(0.0) == 0.0  # normalized, not -0.0
    lams = np.linspace(0.0, 3.0, 7)
    rhos = spec.mode_rho(lams)  # all modes in one call
    assert np.array_equal(rhos, [spec.mode_rho(x) for x in lams])
    assert not np.signbit(rhos[0])


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
    with pytest.raises(RankFull) as info:
        admit([], build_boundary_matrix(reject_full_rank(4, 0.125, 0.5)).gate)
    assert info.value.condition == "boundary-matrix-full-rank"


# ----------------------------------------------------------- admissibility

def _gates(spec):
    """check_consistency's rows of ``spec``, by name."""
    pd = build_pencil(spec.E, spec.A)
    bm = build_boundary_matrix(spec)
    return {gate.name: gate for gate in check_consistency(spec, pd, bm)}


def test_consistency_demo_passes():
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    gates = _gates(spec)
    assert all(gate.passed for gate in gates.values())
    assert gates["projector_fixes_data"].defect <= 1e-12 * spec.data_scale()
    assert gates["data_in_kernel"].defect <= 1e-12 * spec.data_scale()
    assert gates["kernel_invariant"].defect <= 1e-12


def test_consistency_zero_data_passes():
    gates = _gates(_zero_data_spec())
    assert all(gate.passed for gate in gates.values())


def test_consistency_flags_projector_mismatch():
    gate = _gates(reject_projector_mismatch(8, 1.0 / 32.0, 1.0))[
        "projector_fixes_data"]
    assert not gate.passed
    assert gate.defect > 0.5


def test_consistency_flags_kernel_violation():
    gates = _gates(reject_kernel_violation(8, 1.0 / 32.0, 1.0))
    assert gates["projector_fixes_data"].passed
    assert not gates["data_in_kernel"].passed
    assert gates["data_in_kernel"].defect > 0.1


def test_gate_limits_and_defects():
    """Every gate of the demo holds with room to spare; each rejection
    fixture fails its gate, and that gate's condition is what
    solve_problem raises; a NaN defect fails."""
    for gate in _gates(demo_problem(8, 1.0 / 32.0, 1.0)).values():
        assert 0.0 <= gate.defect <= gate.limit
        assert gate.limit > 0.0
    for make in (reject_projector_mismatch, reject_kernel_violation):
        spec = make(8, 1.0 / 32.0, 1.0)
        failing = [gate for gate in _gates(spec).values()
                   if not gate.passed]
        assert failing and failing[0].defect > failing[0].limit
        with pytest.raises(ConsistencyViolation) as info:
            solve_problem(spec)
        assert info.value.condition == failing[0].condition
    nan = Gate("ends_match", "endpoint-data-mismatch", "ends", np.nan, 1.0,
               ConsistencyViolation)
    assert not nan.passed
    with pytest.raises(ConsistencyViolation):
        admit([], nan)


def test_consistency_gate_slugs():
    conditions = ("projector-data-mismatch", "data-outside-boundary-kernel",
                  "boundary-kernel-not-invariant", "endpoint-data-mismatch")

    def rows(*failing):
        """One row per gate, in check_consistency's order; the rows at
        the ``failing`` positions have defect > limit."""
        return [Gate(f"gate{idx}", condition, "gate fails",
                     2.0 if idx in failing else 0.0, 1.0,
                     ConsistencyViolation)
                for idx, condition in enumerate(conditions)]

    admit([], *rows())  # no raise
    for idx, condition in enumerate(conditions):
        with pytest.raises(ConsistencyViolation) as info:
            admit([], *rows(idx))
        assert info.value.condition == condition
    # every earlier condition keeps its name when the ends fail too
    with pytest.raises(ConsistencyViolation) as info:
        admit([], *rows(2, 3))
    assert info.value.condition == "boundary-kernel-not-invariant"


# ---------------------------------------------------------- mode amplitudes

def test_mode_coefficients_zero_data():
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    pd = build_pencil(spec.E, spec.A)
    pairs = solve_psd(spec.sl_problem())
    prop = build_propagators(pd, [spec.mode_rho(pairs[2].lam)])
    z = np.zeros((1, 3), dtype=complex)
    amps = solve_mode_coefficients(spec, pd, prop, fhat=z, ghat=z)
    assert amps.P.shape == amps.Q.shape == (1, 3)
    assert_allclose(amps.P, 0.0, atol=1e-14)
    assert_allclose(amps.Q, 0.0, atol=1e-14)
    assert amps.residual.shape == prop.rho.shape == (1,)
    assert amps.residual[0] <= 1e-14
    assert prop.rho[0] == spec.mode_rho(pairs[2].lam)


def test_mode_coefficients_branch_equations():
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    pd = build_pencil(spec.E, spec.A)
    pairs = solve_psd(spec.sl_problem())
    # the first component sits on the reduced operator's zero eigenvalue,
    # where both branch roots equal one: it must agree between the levels
    fhat = np.array([0.4, -0.3, 0.0], dtype=complex)
    ghat = np.array([0.4, -0.28, 0.0], dtype=complex)
    # every mode above the static first one is solved in one call
    rhos = spec.mode_rho(pairs.lam[1:])
    prop = build_propagators(pd, rhos)
    modes = len(rhos)
    amps = solve_mode_coefficients(spec, pd, prop,
                                   fhat=np.tile(fhat, (modes, 1)),
                                   ghat=np.tile(ghat, (modes, 1)))
    assert amps.P.shape == (modes, 3)
    assert_allclose(prop.rho, rhos, rtol=0, atol=0)
    assert_allclose(amps.P + amps.Q, np.tile(fhat, (modes, 1)), atol=1e-9)
    step = prop.Z0 @ amps.P[..., None] + prop.Z1 @ amps.Q[..., None]
    assert_allclose(step[..., 0], np.tile(ghat, (modes, 1)), atol=1e-9)


def test_mode_coefficients_static_direction_mismatch():
    # first-level data moving along the static eigendirection cannot be
    # produced by any branch amplitudes
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    pd = build_pencil(spec.E, spec.A)
    pairs = solve_psd(spec.sl_problem())
    # modes 1 to 3 carry no data, so mode 4 is the first that fails
    fhat = np.zeros((4, 3), dtype=complex)
    ghat = np.zeros((4, 3), dtype=complex)
    fhat[3] = [0.4, -0.3, 0.0]
    ghat[3] = [0.35, -0.28, 0.0]
    prop = build_propagators(pd, spec.mode_rho(pairs.lam[:4]))
    amps = solve_mode_coefficients(spec, pd, prop, fhat=fhat, ghat=ghat)
    with pytest.raises(ConsistencyViolation) as info:
        admit([], amps.gate)
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
    assert amps.P.shape == (N - 1, 3)
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
    stab = sol.stability
    assert stab.sup_norm == 0.0
    assert stab.power_bound_ok


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


# the problems of the exact checks below, by id
EXACT_CHECKS = {
    "demo-N256": lambda rng: demo_problem(256, 0.5 / 256, 1.0),
    "rotated-orthogonal": lambda rng: rotated_demos(
        random_orthogonal(rng, 9)),
    "rotated-complex": lambda rng: rotated_demos(random_orthogonal(rng, 9),
                                                 1.0 + 1.0j),
    "rotated-unitary": lambda rng: rotated_demos(random_unitary(rng, 9)),
}


@pytest.fixture(scope="module", params=list(EXACT_CHECKS))
def solved(request):
    """A problem and its grid: the demo at N = 256, M = 512 (r = 0.5), or
    three coupled demos (m = 9, N = 8) through a real orthogonal change
    of unknowns, the same with complex positions, or a unitary one."""
    spec = EXACT_CHECKS[request.param](make_rng(20250822))
    return spec, solve_problem(spec).U


def test_solution_reversed_in_time(solved):
    # the scheme is symmetric in time: from U(M) and the velocity that
    # gives U(M - 1) as the first level, the march runs U backwards
    spec, U = solved
    k = spec.grid.k
    back = dataclasses.replace(spec, F=U[:, -1],
                               Gv=(U[:, -2] - U[:, -1]) / k)
    deviation = np.abs(solve_problem(back).U - U[:, ::-1]).max()
    assert deviation <= 1e-12 * np.abs(U).max()


def test_solution_superposition_by_spatial_mode(solved, rng):
    # F and G split by a random weight per spatial mode: each part keeps
    # every mode's admissible direction (a weight per node would put
    # velocity on the lowest mode, which does not propagate), and the two
    # solutions add up to the whole
    spec, U = solved
    N = spec.grid.N
    modes = solve_psd(spec.sl_problem())
    w = rng.uniform(size=(len(modes), 1))
    parts = [dataclasses.replace(spec, **{key: _with_boundary(
        modes.v.T @ (weight * expand(getattr(spec, key)[1:N], modes)),
        vars(spec)) for key in ("F", "Gv")}) for weight in (w, 1 - w)]
    total = sum(solve_problem(part).U for part in parts)
    assert np.abs(total - U).max() <= 1e-12 * np.abs(U).max()


def test_convergence_is_first_order():
    # the clamped scalar wave from sin(pi x) at rest, r = 0.5, T = 0.5,
    # against the exact cos(pi t) sin(pi x): the interior scheme is second
    # order, but the first level U(1) = F + k G makes the max error halve
    # with h (an eigenvector paired with another mode's lambda does not)
    errors = []
    for N in (16, 32, 64, 128):
        spec = dataclasses.replace(scalar_wave_problem(N, 0.5 / N, 0.5),
                                   Gv=np.zeros((N + 1, 1)))
        x, t = np.arange(N + 1) / N, np.arange(spec.grid.M + 1) * spec.grid.k
        exact = np.outer(np.sin(np.pi * x), np.cos(np.pi * t))
        errors.append(np.abs(solve_problem(spec).U[..., 0] - exact).max())
    order = np.log2(np.divide(errors[:-1], errors[1:]))
    assert np.abs(order - 1.0).max() <= 0.1, order


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
    pytest.param(lambda: scalar_wave_problem(16, 0.125, 20.0),
                 "unstable-step-ratio", id="scalar_wave_r2"),
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


def test_dirichlet_ends_write_no_negative_zero():
    # a clamped end has a = -0.0; its rows must be +0.0, which
    # solution.csv writes as 0.0 rather than -0.0
    spec = _jordan_problem()
    N = spec.grid.N
    ends = solve_problem(spec).U[[0, N]].view(float)
    assert not ends.any()
    assert not np.signbit(ends).any()


def test_real_problem_gives_a_real_grid(rng):
    # every relation of the scheme is real, so a real problem's grid is
    # real: its imaginary parts are +0.0, not round-off of the modes
    spec = rotated_demos(random_orthogonal(rng, 9))
    assert spec.is_real()
    U = solve_problem(spec).U
    assert (U.imag == 0.0).all()
    assert not np.signbit(U.imag).any()


@pytest.mark.parametrize("make", [
    lambda rng: rotated_demos(random_orthogonal(rng, 9), 1.0 + 1.0j),
    lambda rng: rotated_demos(random_unitary(rng, 9)),
], ids=["complex-data", "unitary"])
def test_complex_problem_keeps_its_imaginary_part(make, rng):
    spec = make(rng)
    assert not spec.is_real()
    U = solve_problem(spec).U
    assert np.abs(U.imag).max() > 0.1 * np.abs(U).max()


def _robin_growth_problem() -> ProblemSpec:
    """m = 1 with a Robin end, alpha = 0.5 and beta = 0 at N = 8: the
    lowest spatial eigenvalue is negative, so its roots leave the unit
    circle; F = sin(pi x) with the eigenfunction endpoint rows, at rest."""
    N = 8
    one, zero = np.ones((1, 1)), np.zeros((1, 1))
    F = _with_boundary(np.sin(np.pi * np.arange(1, N) / N)[:, None],
                       {"alpha": 0.5, "beta": 0.0})
    return ProblemSpec(m=1, E=one, A=one, A1=one, A2=0.5 * one, B1=one,
                       B2=zero, alpha=0.5, beta=0.0, F=F,
                       Gv=np.zeros((N + 1, 1)),
                       grid=GridParams.create(N, 0.5 / N, 1.0))


def _empty_core_problem() -> ProblemSpec:
    """E = 0, A = I with clamped ends and zero data: nothing propagates,
    the pencil's core is 0 x 0."""
    N, eye, zero = 8, np.eye(2), np.zeros((2, 2))
    return ProblemSpec(m=2, E=zero, A=eye, A1=eye, A2=zero, B1=eye, B2=zero,
                       alpha=0.0, beta=0.0, F=np.zeros((N + 1, 2)),
                       Gv=np.zeros((N + 1, 2)),
                       grid=GridParams.create(N, 1.0 / 16.0, 1.0))


def _complex_demo() -> ProblemSpec:
    spec = demo_problem()
    return dataclasses.replace(spec, F=(1.0 + 1.0j) * spec.F,
                               Gv=(1.0 - 2.0j) * spec.Gv)


# problems whose pencil core is diagonal, by id
DIAGONAL_CORES = {
    "demo-N128": lambda: demo_problem(128, 0.5 / 128, 2.0),
    "scalar-N256": lambda: scalar_wave_problem(256, 0.5 / 256, 0.5),
    "demo-complex": _complex_demo,
    "robin-growth": _robin_growth_problem,
    "empty-core": _empty_core_problem,
}


@pytest.mark.parametrize("name", list(DIAGONAL_CORES))
def test_diagonal_core_matches_the_stepped_grid(name):
    # a diagonal core's tables are closed-form powers of its roots, which
    # round otherwise than M steps do, by a few ulps of max|U| per step
    spec = DIAGONAL_CORES[name]()
    sol = solve_problem(spec)
    assert not np.triu(sol.pencil.core, 1).any()
    ref = stepped_assembly(spec, sol.propagators, sol.modes, sol.eigenpairs)
    bound = 4 * spec.grid.M * np.finfo(float).eps * np.abs(ref).max()
    assert np.abs(sol.U - ref).max() <= bound
    if name == "robin-growth":
        lam = solve_psd(spec.sl_problem()).lam[0] * spec.grid.N ** 2
        assert lam == pytest.approx(-5.01, abs=0.005)
        assert sol.stability.max_root_modulus > 1.0
    if name == "empty-core":
        assert sol.pencil.core.shape == (0, 0)
        assert not sol.U.any()


@pytest.mark.parametrize("make", [
    lambda rng: _jordan_problem(),
    lambda rng: rotated_demos(random_orthogonal(rng, 9)),
], ids=["jordan", "rotated"])
def test_other_cores_keep_the_stepped_grid(make, rng):
    # a Jordan block, or off-diagonals of round-off size, step bit for
    # bit as before; the rotated demos' lowest mode has rho = 0, so its C
    # is the identity, and a mode's C cannot tell the core's shape
    spec = make(rng)
    sol = solve_problem(spec)
    assert np.triu(sol.pencil.core, 1).any()
    ref = stepped_assembly(spec, sol.propagators, sol.modes, sol.eigenpairs)
    assert sol.U.tobytes() == ref.tobytes()


# ---------------------------------------------------------------- stability

def test_stability_demo_report():
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    sol = solve_problem(spec)
    stab = sol.stability
    assert stab.growth_rate <= 1e-10
    assert stab.max_root_modulus <= 1.0 + 1e-12
    assert stab.root_margin > 0.0
    assert stab.power_bound_ok
    pairs = solve_psd(spec.sl_problem())
    rhos = spec.mode_rho(pairs.lam)
    prop = build_propagators(build_pencil(spec.E, spec.A), rhos)
    assert power_norms(prop, spec.grid.M).max() <= 1.0 + 1e-10


def test_stability_scalar_wave():
    sol = solve_problem(scalar_wave_problem())
    stab = sol.stability
    assert stab.power_bound_ok
    assert stab.root_margin > 0.0
    assert abs(stab.growth_rate) <= 1e-10


# --------------------------------------------------------------- pipeline

def test_solve_problem_record_on_success():
    sol = solve_problem(demo_problem(8, 1.0 / 32.0, 0.5))
    for name in ("eigenpairs", "pencil", "boundary", "gates", "propagators",
                 "modes", "U", "stability"):
        assert getattr(sol, name) is not None


def test_solve_problem_record_on_rejection():
    sol = DiscreteSolution()
    with pytest.raises(ConsistencyViolation) as info:
        solve_problem(reject_projector_mismatch(8, 1.0 / 32.0, 1.0), sol)
    assert info.value.condition == "projector-data-mismatch"
    for name in ("eigenpairs", "pencil", "boundary", "gates"):
        assert getattr(sol, name) is not None
    for name in ("propagators", "modes", "U", "stability"):
        assert getattr(sol, name) is None


def test_solution_reconstructs_from_modes():
    spec = demo_problem(8, 1.0 / 32.0, 0.5)
    sol = solve_problem(spec)
    pairs = solve_psd(spec.sl_problem())
    N, M = spec.grid.N, spec.grid.M
    pd = build_pencil(spec.E, spec.A)
    # rebuild step j=M from the stored amplitudes and fresh propagators
    rebuilt = np.zeros((N - 1, spec.m), dtype=complex)
    amps = sol.modes
    for idx, rho in enumerate(sol.propagators.rho):
        prop = build_propagators(pd, rho)
        amp = (np.linalg.matrix_power(prop.Z0[0], M) @ amps.P[idx]
               + np.linalg.matrix_power(prop.Z1[0], M) @ amps.Q[idx])
        rebuilt += np.outer(pairs[idx].v, amp)
    assert_allclose(rebuilt, sol.U[1:N, M], atol=1e-9)
