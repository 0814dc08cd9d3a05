"""End-to-end solve of the coupled two-level difference system.

The displacement grid U(i, j) in C^m on i = 0..N, j = 0..M satisfies

    E (U(i,j+1) - 2U(i,j) + U(i,j-1)) = r^2 A (U(i+1,j) - 2U(i,j) + U(i-1,j))

on interior nodes, first-order coupled endpoint relations at i = 0 and
i = N, and initial position/velocity data F, Gv.  The solve separates
space through the discrete eigenbasis, propagates each mode with the
pencil propagators, and reassembles.  Every admissibility decision is
a Gate, admitted in evaluation order (errors.admit) into one list.  The
root facts come from the one root table of pencil.build_propagators.
The endpoint rows are the
eigenfunctions' own, U(0) = a U(1) and U(N) = b U(N-1) with the scalars
of sturm_liouville.boundary_scalars; on the kernel of the endpoint
matrix they satisfy the matrix relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import (ConsistencyViolation, Gate, ParseError, RankFull,
                     RhoDegenerate, admit)
from .matrix_core import (
    DEFAULT_RANK_TOL,
    _finite_number,
    _integer_at_least,
    as_matrix,
    kernel_invariance_defect,
    min_norm_solve,
    one_norm,
    peak_norm,
    rank_and_kernel,
)
from .pencil import (
    _EZ_TOL,
    PencilData,
    PropagatorPair,
    build_pencil,
    build_propagators,
)
from .sturm_liouville import SLProblem, boundary_scalars, expand, solve_psd


@dataclass
class Tolerances:
    """Relative tolerances used throughout a solve.

    Each must be a finite number greater than 0: a NaN would make every
    gate comparison false and so pass anything.  Raises ParseError
    otherwise.
    """

    rank: float = DEFAULT_RANK_TOL
    residual: float = 1e-8
    consistency: float = 1e-8

    def __post_init__(self):
        for name in ("rank", "residual", "consistency"):
            value = _finite_number(getattr(self, name), f"tolerances.{name}")
            if not value > 0.0:
                raise ParseError(
                    f'"tolerances.{name}" must be > 0, got {value!r}')
            setattr(self, name, value)


@dataclass
class GridParams:
    """Uniform space-time grid: h = 1/N, time step k, horizon T = M*k."""

    N: int
    k: float
    T: float
    M: int
    r: float

    @classmethod
    def create(cls, N: int, k: float, T: float) -> "GridParams":
        """Raises ParseError unless N >= 2 is an integer, not a bool or a
        float, k and T are finite and positive, and T/k is whole."""
        N = _integer_at_least(N, "N", 2)
        k, T = _finite_number(k, "k"), _finite_number(T, "T")
        if not (k > 0.0 and T > 0.0):
            raise ParseError(f'"k" and "T" must be > 0, got {k!r} and {T!r}')
        steps = T / k
        M = int(round(steps))
        if M < 1 or abs(steps - M) > 1e-9 * max(1.0, steps):
            raise ParseError(
                f"T/k = {steps!r} is not an integer number of steps")
        return cls(N=N, k=k, T=T, M=M, r=k * N)


MATRIX_KEYS = ("E", "A", "A1", "A2", "B1", "B2")


@dataclass
class ProblemSpec:
    """Complete description of one discrete mixed problem.

    Construction, dataclasses.replace included, is the one validator of a
    problem's values (GridParams.create checks the grid again, as_matrix
    each table); it raises ShapeError, NonFiniteValue or ParseError.
    """

    m: int
    E: np.ndarray
    A: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    alpha: float
    beta: float
    F: np.ndarray
    Gv: np.ndarray
    grid: GridParams
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        m = self.m = _integer_at_least(self.m, "m", 1)
        if not isinstance(self.grid, GridParams):
            raise ParseError(f'"grid" must be a GridParams, got {self.grid!r}')
        grid = self.grid = GridParams.create(self.grid.N, self.grid.k,
                                             self.grid.T)
        for name in MATRIX_KEYS:
            setattr(self, name, as_matrix(getattr(self, name), name, (m, m)))
        self.F = as_matrix(self.F, "F", (grid.N + 1, m))
        self.Gv = as_matrix(self.Gv, "Gv", (grid.N + 1, m))
        self.alpha = _finite_number(self.alpha, "alpha")
        self.beta = _finite_number(self.beta, "beta")

    def data_scale(self) -> float:
        """1 + largest nodal 1-norm over both data grids.

        The admissibility gates test the data vectors themselves, so F and
        Gv enter unscaled.  verify.data_normalizer differs on purpose: the
        residual oracle measures grid increments, where the velocity data
        enter as k*Gv.
        """
        return 1.0 + max(peak_norm(self.F), peak_norm(self.Gv))

    def sl_problem(self) -> SLProblem:
        return SLProblem(self.grid.N, self.alpha, self.beta)

    def is_real(self) -> bool:
        """No matrix or data grid has a nonzero imaginary entry (alpha,
        beta and the grid are real floats)."""
        return not any(getattr(self, name).imag.any()
                       for name in (*MATRIX_KEYS, "F", "Gv"))

    def mode_rho(self, lam):
        """Step-ratio parameter -r^2 * lam of the mode with eigenvalue lam,
        a scalar or an array of modes; the result has its shape."""
        return -self.grid.r ** 2 * np.asarray(lam, dtype=float) + 0.0


@dataclass
class BoundaryMatrix:
    """Stacked endpoint coupling map (alpha*A1 - A2 over beta*B1 - B2);
    gate fails on a trivial kernel: no nonzero grid meets both relations."""

    Gab: np.ndarray
    rank: int
    kernel: np.ndarray
    gate: Gate


def build_boundary_matrix(spec: ProblemSpec) -> BoundaryMatrix:
    """Assemble the 2m x m endpoint matrix, its kernel and its gate."""
    Gab = np.vstack([spec.alpha * spec.A1 - spec.A2,
                     spec.beta * spec.B1 - spec.B2])
    rank, kernel = rank_and_kernel(Gab, spec.tolerances.rank)
    return BoundaryMatrix(Gab, rank, kernel, Gate(
        "kernel_nontrivial", "boundary-matrix-full-rank",
        f"endpoint coupling matrix has full rank {rank}; "
        "no nontrivial admissible states exist", rank, spec.m - 1, RankFull))


def check_consistency(spec: ProblemSpec, pd: PencilData,
                      bm: BoundaryMatrix) -> List[Gate]:
    """Four ConsistencyViolation gates: the pencil projector fixes the
    data, the interior data lie in the endpoint kernel, that kernel is
    invariant under the reduced operator, and the data's endpoint rows
    are a and b times the adjacent rows, as the eigenfunctions' are."""
    tol = spec.tolerances.consistency
    scale = spec.data_scale()
    N = spec.grid.N
    data = np.stack([spec.F, spec.Gv])  # both grids, every node
    a, b = boundary_scalars(spec.sl_problem())
    ends = np.stack([data[:, 0] - a * data[:, 1],
                     data[:, N] - b * data[:, N - 1]])
    rows = [
        ("projector_fixes_data", "projector-data-mismatch",
         "pencil projector alters the initial data",
         peak_norm(data @ pd.projector.T - data),
         tol * (1.0 + one_norm(pd.projector)) * scale),
        ("data_in_kernel", "data-outside-boundary-kernel",
         "interior data leaves the endpoint kernel",
         peak_norm(data[:, 1:N] @ bm.Gab.T),
         tol * (1.0 + one_norm(bm.Gab)) * scale),
        ("kernel_invariant", "boundary-kernel-not-invariant",
         "endpoint kernel is not invariant under the reduced operator",
         kernel_invariance_defect(bm.Gab, pd.reduced, bm.kernel),
         tol * (1.0 + one_norm(pd.reduced) * one_norm(bm.Gab))),
        ("ends_match", "endpoint-data-mismatch",
         "endpoint data differ from the eigenfunction endpoint rows",
         peak_norm(ends), tol * (1.0 + max(abs(a), abs(b))) * scale),
    ]
    return [Gate(name, condition, f"{text} (defect {defect:.3e})", defect,
                 limit, ConsistencyViolation)
            for name, condition, text, defect, limit in rows]


@dataclass
class ModeAmplitudes:
    """Branch amplitudes of the propagator stack's modes; row idx is
    spatial mode idx + 1.  P, Q are (modes, m); residual is (modes,).
    gate fails at the first mode whose residual exceeds its limit, as
    rho-degenerate where its roots coincide at an active d."""

    P: np.ndarray
    Q: np.ndarray
    residual: np.ndarray
    gate: Gate


def solve_mode_coefficients(spec: ProblemSpec, pd: PencilData,
                            propagators: PropagatorPair,
                            fhat: np.ndarray, ghat: np.ndarray
                            ) -> ModeAmplitudes:
    """Branch amplitudes P_l, Q_l of every mode of a propagator stack.

    fhat and ghat hold, one row per mode, the coefficients in the initial
    position and in the first time level.  P_l + Q_l reproduces fhat and
    Z0 P_l + Z1 Q_l reproduces ghat.  In core coordinates both amplitudes
    are (f_c +- x)/2 with S_l x = g_c - C_l f_c, one min_norm_solve over
    the S stack for all modes; the residual of both equations in full
    coordinates, against a limit of each mode's own, makes the gate.
    """
    tol = spec.tolerances.residual
    fc = fhat @ pd.coords.T
    rhs = ghat @ pd.coords.T - (propagators.C @ fc[..., None])[..., 0]
    S = propagators.S
    # singular values below machine precision times the order are zero
    cut = np.finfo(float).eps * max(S.shape[-1], 1)
    x = min_norm_solve(S, rhs[..., None], cut)[..., 0]
    P = ((fc + x) / 2.0) @ pd.basis.T
    Q = ((fc - x) / 2.0) @ pd.basis.T
    step = (propagators.Z0 @ P[..., None]
            + propagators.Z1 @ Q[..., None])[..., 0]
    res = np.abs(P + Q - fhat).sum(axis=1) + np.abs(step - ghat).sum(axis=1)
    limit = tol * (1.0 + np.abs(fhat).sum(axis=1) + np.abs(ghat).sum(axis=1))
    # fmax skips a NaN residual, as the grid's residual gate decides it
    gate = Gate("modes_solvable", "mode-equations-unsolvable", "",
                np.fmax.reduce(res - limit, initial=-np.inf), 0.0,
                ConsistencyViolation)
    if not gate.passed:
        idx = int(np.flatnonzero(res > limit)[0])
        bad = np.diagonal(pd.core)[pd.active & propagators.coincide[idx]]
        gate.message = f"mode {idx + 1} amplitude system unsolvable"
        if bad.size:
            gate.condition, gate.error = "rho-degenerate", RhoDegenerate
            gate.message = (f"mode {idx + 1}: propagator roots coincide at "
                            f"reduced eigenvalue(s) {bad.tolist()} and leave "
                            "the mode system unsolvable")
        gate.message += f" (residual {res[idx]:.3e})"
    return ModeAmplitudes(P, Q, res, gate)


@dataclass
class StabilityReport:
    """Propagator roots, their growth rates, and the grid's sup-norm.

    rate holds each mode's growth rate, row idx for mode idx + 1;
    growth_rate is the largest.  power_bound_ok: no root modulus above
    1 + _EZ_TOL; root_margin: min Re(z) + 4 over every (mode, d),
    negative beyond the limit.
    """

    rate: np.ndarray
    growth_rate: float
    sup_norm: float
    max_root_modulus: float
    root_margin: float
    power_bound_ok: bool


@dataclass
class DiscreteSolution:
    """The record of one solve: each stage's result, None until it has run
    (boundary and modes until their gate passes), and the gates admitted
    so far.  Per-mode fields hold row idx for spatial mode idx + 1."""

    eigenpairs: Optional[np.recarray] = None
    pencil: Optional[PencilData] = None
    boundary: Optional[BoundaryMatrix] = None
    gates: List[Gate] = field(default_factory=list)
    propagators: Optional[PropagatorPair] = None
    modes: Optional[ModeAmplitudes] = None
    # (N+1, M+1, m) complex; imaginary parts exactly 0.0 for a real problem
    U: Optional[np.ndarray] = None
    stability: Optional[StabilityReport] = None


def _scaled_powers(root: np.ndarray, amp: np.ndarray, M: int) -> np.ndarray:
    """amp * root^j for j = 0..M as a (modes, M+1, p) array: the amplitude,
    then the root M times, multiplied up by one cumulative product."""
    out = np.empty((len(root), M + 1, root.shape[1]), dtype=complex)
    out[:, 0], out[:, 1:] = amp, root[:, None]
    return np.multiply.accumulate(out, axis=1, out=out)


def assemble_solution(spec: ProblemSpec, pd: PencilData,
                      propagators: PropagatorPair, amps: ModeAmplitudes,
                      eigenpairs: np.recarray) -> np.ndarray:
    """Superpose the modes on interior nodes and extend to the endpoints.

    Mode l's table is Z0_l^j P_l + Z1_l^j Q_l, j = 0..M.  A pencil core
    with nothing above its diagonal (the demo, every m = 1 problem) makes
    C and S diagonal, so each core direction's table is p+^j Pc + p-^j Qc
    with roots p+- = c +- s and amplitudes Pc, Qc in core coordinates:
    closed-form powers, mapped to components, then one real product with
    the real eigenvectors ``eigenpairs.v`` into U's interior rows.  Any
    other core (a Jordan block, off-diagonals of round-off size) steps
    the (modes, m, m) propagator stack M times, then one complex product.
    The endpoint rows are the eigenfunctions' own, U(0) = a U(1) and
    U(N) = b U(N-1) (boundary_scalars).  Amplitudes in
    the kernel of the endpoint matrix, which check_consistency gates,
    make them satisfy the matrix endpoint relations exactly.

    A real problem (ProblemSpec.is_real) has a real grid: every relation
    of the scheme is real-linear with real coefficients, so the grid's
    real part satisfies each one at least as well as the grid, and the
    imaginary round-off of the complex modes is set to 0.0.  The real
    parts are left bit for bit as computed.
    """
    grid = spec.grid
    N, M, m = grid.N, grid.M, spec.m
    U = np.empty((N + 1, M + 1, m), dtype=complex)
    interior = U[1:N].reshape(N - 1, -1)
    if np.triu(pd.core, 1).any():
        # tables[l, j] = Z0_l^j P_l + Z1_l^j Q_l, both branches stepped as
        # one (branch, modes, m, 1) stack of columns
        Z = np.stack([propagators.Z0, propagators.Z1])
        cur = np.stack([amps.P, amps.Q])[..., None]
        tables = np.empty((len(amps.P), M + 1, m), dtype=complex)
        tables[:, 0] = cur.sum(axis=0)[..., 0]
        for j in range(1, M + 1):
            cur = Z @ cur
            tables[:, j] = cur.sum(axis=0)[..., 0]
        # one BLAS product carries every mode to every interior node
        np.matmul(eigenpairs.v.T, tables.reshape(len(tables), -1),
                  out=interior)
    else:
        diag = np.arange(pd.core.shape[0])
        c, s = propagators.C[:, diag, diag], propagators.S[:, diag, diag]
        core = _scaled_powers(c + s, amps.P @ pd.coords.T, M)
        core += _scaled_powers(c - s, amps.Q @ pd.coords.T, M)
        tables = core @ pd.basis.T
        # the real eigenvectors times the tables' (re, im) pairs
        np.matmul(eigenpairs.v.T, tables.view(float).reshape(len(c), -1),
                  out=interior.view(float))

    a, b = boundary_scalars(spec.sl_problem())
    # at a Dirichlet end a zero scalar times a negative value is -0.0;
    # + 0.0 writes it as 0.0
    U[0] = a * U[1] + 0.0
    U[N] = b * U[N - 1] + 0.0
    if spec.is_real():
        U.imag[...] = 0.0
    return U


def stability_report(spec: ProblemSpec, propagators: PropagatorPair,
                     U: np.ndarray) -> StabilityReport:
    """Root verdict of every mode's propagators, read off their roots.

    A mode's growth rate is log(max|p|)/k over its propagator roots
    (the root table's modulus), so |p|^j = exp(rate * j*k).
    """
    k = spec.grid.k
    top = propagators.modulus.max(axis=-1, initial=1.0)  # one per mode
    sup = peak_norm(U)
    worst = float(top.max(initial=1.0))
    margin = float(propagators.z.real.min(initial=np.inf)) + 4.0
    return StabilityReport(np.log(top) / k, float(np.log(worst) / k), sup,
                           worst, margin, worst <= 1.0 + _EZ_TOL)


def solve_problem(spec: ProblemSpec,
                  sol: Optional[DiscreteSolution] = None
                  ) -> DiscreteSolution:
    """Full pipeline: eigenbasis, pencil, endpoint matrix, admissibility,
    propagators, modes, assembly, stability.  Each stage's result and
    gates go into ``sol`` (a new record when None) as the stage finishes,
    so a caller's own record keeps what ran before a rejection."""
    sol = DiscreteSolution() if sol is None else sol
    sol.eigenpairs = eigenpairs = solve_psd(spec.sl_problem())
    sol.pencil = pd = build_pencil(spec.E, spec.A, tol=spec.tolerances.rank)
    admit(sol.gates, pd.gate)
    bm = build_boundary_matrix(spec)
    admit(sol.gates, bm.gate)
    sol.boundary = bm
    admit(sol.gates, *check_consistency(spec, pd, bm))

    interior = slice(1, spec.grid.N)
    fc = expand(spec.F[interior], eigenpairs)
    gc = expand(spec.F[interior] + spec.grid.k * spec.Gv[interior],
                eigenpairs)

    sol.propagators = propagators = build_propagators(
        pd, spec.mode_rho(eigenpairs.lam))
    admit(sol.gates, propagators.gate)
    modes = solve_mode_coefficients(spec, pd, propagators, fc, gc)
    admit(sol.gates, modes.gate)
    sol.modes = modes
    sol.U = assemble_solution(spec, pd, propagators, sol.modes, eigenpairs)
    sol.stability = stability_report(spec, propagators, sol.U)
    return sol
