"""End-to-end solve of the coupled two-level difference system.

The displacement grid U(i, j) in C^m on i = 0..N, j = 0..M satisfies

    E (U(i,j+1) - 2U(i,j) + U(i,j-1)) = r^2 A (U(i+1,j) - 2U(i,j) + U(i-1,j))

on interior nodes, first-order coupled endpoint relations at i = 0 and
i = N, and initial position/velocity data F, Gv.  The solve separates
space through the discrete eigenbasis, propagates each mode with the
pencil propagators, and reassembles, with admissibility of the data
checked before any mode is solved.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .errors import (
    ConsistencyViolation,
    BoundaryExtensionInconsistent,
    NonFiniteValue,
    ParseError,
    RankFull,
    RhoDegenerate,
    ShapeError,
)
from .matrix_core import (
    DEFAULT_RANK_TOL,
    kernel_invariance_defect,
    min_norm_solve,
    one_norm,
    rank_and_kernel,
)
from .pencil import (
    PencilData,
    PropagatorPair,
    build_pencil,
    build_propagators,
    rho_condition_violations,
)
from .sturm_liouville import (
    SLProblem,
    expand,
    extend_eigenfunction,
    solve_psd,
)


def is_number(value, kind=(int, float)) -> bool:
    """Whether ``value`` is a number of ``kind``; a bool is not, though
    Python counts it as an int."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _finite_number(value, name: str, kind=numbers.Real):
    """``value`` as a finite float, or complex if ``kind`` is
    numbers.Complex; raises ParseError for anything else."""
    cast = complex if kind is numbers.Complex else float
    try:
        if is_number(value, kind) and cmath.isfinite(cast(value)):
            return cast(value)
    except OverflowError:  # an int too large for a float
        pass
    raise ParseError(
        f'"{name}" must be a finite {cast.__name__}, got {value!r}')


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
        if not is_number(N, numbers.Integral) or N < 2:
            raise ParseError(f'"N" must be an integer >= 2, got {N!r}')
        N = int(N)
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


def _finite_table(value, name: str, shape: tuple) -> np.ndarray:
    """``value`` as a complex array of ``shape`` with finite entries."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # rows of unequal length
        raise ShapeError(
            f'"{name}" must have shape {shape}, got uneven rows') from exc
    if arr.dtype.kind not in "iufc":
        raise ParseError(f'"{name}" entries must be numbers, got {arr.dtype}')
    if arr.shape != shape:
        raise ShapeError(f'"{name}" must have shape {shape}, got {arr.shape}')
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f'"{name}" contains non-finite entries')
    return arr.astype(complex, copy=False)


@dataclass
class ProblemSpec:
    """Complete description of one discrete mixed problem.

    Construction, dataclasses.replace included, is the one validator of a
    problem's values (GridParams.create checks the grid again); it raises
    ShapeError, NonFiniteValue or ParseError.
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
    gamma: Optional[complex] = None
    rho_override: Optional[Union[float, Sequence[float]]] = None
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        if not is_number(self.m, numbers.Integral) or self.m < 1:
            raise ParseError(f'"m" must be an integer >= 1, got {self.m!r}')
        m = self.m = int(self.m)
        if not isinstance(self.grid, GridParams):
            raise ParseError(f'"grid" must be a GridParams, got {self.grid!r}')
        grid = self.grid = GridParams.create(self.grid.N, self.grid.k,
                                             self.grid.T)
        for name in MATRIX_KEYS:
            setattr(self, name, _finite_table(getattr(self, name), name,
                                              (m, m)))
        self.F = _finite_table(self.F, "F", (grid.N + 1, m))
        self.Gv = _finite_table(self.Gv, "Gv", (grid.N + 1, m))
        self.alpha = _finite_number(self.alpha, "alpha")
        self.beta = _finite_number(self.beta, "beta")
        if self.gamma is not None:
            self.gamma = _finite_number(self.gamma, "gamma", numbers.Complex)
        rho = self.rho_override
        rho = rho.tolist() if isinstance(rho, np.ndarray) else rho
        if is_number(rho, numbers.Real):
            self.rho_override = _finite_number(rho, "rho_override")
        elif rho is not None:
            if not isinstance(rho, (list, tuple)) or len(rho) != grid.N - 1:
                raise ShapeError('"rho_override" must be a number or a list '
                                 f'of {grid.N - 1} numbers, got {rho!r}')
            self.rho_override = [_finite_number(v, "rho_override")
                                 for v in rho]

    def data_scale(self) -> float:
        """1 + largest nodal 1-norm over both data grids.

        The admissibility gates test the data vectors themselves, so F and
        Gv enter unscaled.  verify.data_normalizer differs on purpose: the
        residual oracle measures grid increments, where the velocity data
        enter as k*Gv.
        """
        fmax = float(np.abs(self.F).sum(axis=1).max())
        gmax = float(np.abs(self.Gv).sum(axis=1).max())
        return 1.0 + max(fmax, gmax)

    def sl_problem(self) -> SLProblem:
        return SLProblem(self.grid.N, self.alpha, self.beta)

    def mode_rho(self, l, lam):
        """Step-ratio parameter of mode l (1-based) with eigenvalue lam:
        -r^2 * lambda_l unless overridden.  l and lam are scalars or
        arrays of modes; the result has their shape."""
        if self.rho_override is None:
            return -self.grid.r ** 2 * np.asarray(lam, dtype=float) + 0.0
        rho = np.asarray(self.rho_override, dtype=float)
        return rho[np.asarray(l) - 1] if rho.ndim else np.full(np.shape(l), rho)


@dataclass
class BoundaryMatrix:
    """Stacked endpoint coupling map (alpha*A1 - A2 over beta*B1 - B2)."""

    Gab: np.ndarray
    rank: int
    kernel: np.ndarray


def build_boundary_matrix(spec: ProblemSpec) -> BoundaryMatrix:
    """Assemble the 2m x m endpoint matrix and its kernel.

    Raises RankFull when the kernel is trivial: no nonzero grid function
    can then satisfy both endpoint relations, and the solve cannot
    proceed.
    """
    Gab = np.vstack([spec.alpha * spec.A1 - spec.A2,
                     spec.beta * spec.B1 - spec.B2])
    rank, kernel = rank_and_kernel(Gab, spec.tolerances.rank)
    if rank >= spec.m:
        raise RankFull(
            f"endpoint coupling matrix has full rank {rank}; "
            "no nontrivial admissible states exist")
    return BoundaryMatrix(Gab, rank, kernel)


def endpoint_maps(A1, A2, B1, B2, N: int,
                  rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The m x m maps taking U(1,j) to U(0,j) and U(N-1,j) to U(N,j).

    Each endpoint row is the minimum-norm solution, with singular values
    below rank_tol (relative) cut, of the discrete endpoint relation
    (A1 - N*A2) U(0,j) = -N*A2 U(1,j) or (B1 + N*B2) U(N,j) = N*B2 U(N-1,j);
    both maps come from one stacked solve.
    """
    return tuple(min_norm_solve(np.stack([A1 - N * A2, B1 + N * B2]),
                                np.stack([-N * A2, N * B2]), rank_tol))


@dataclass
class ConsistencyReport:
    """Admissibility of the initial data for the separated solve."""

    projector_fixes_data: bool
    projector_defect: float
    data_in_kernel: bool
    kernel_defect: float
    kernel_invariant: bool
    invariance_defect: float
    scale: float

    @property
    def passed(self) -> bool:
        return (self.projector_fixes_data and self.data_in_kernel
                and self.kernel_invariant)


def check_consistency(spec: ProblemSpec, pd: PencilData,
                      bm: BoundaryMatrix) -> ConsistencyReport:
    """Three admissibility checks, reported rather than raised.

    (a) the pencil projector fixes every data vector, (b) interior data
    lies in the kernel of the endpoint matrix, (c) that kernel is
    invariant under the reduced operator.
    """
    tol = spec.tolerances.consistency
    scale = spec.data_scale()

    data = np.stack([spec.F, spec.Gv])  # both grids, every node
    proj_defect = float(np.abs(data @ pd.projector.T - data).sum(axis=2).max())
    proj_ok = proj_defect <= tol * (1.0 + one_norm(pd.projector)) * scale

    kernel_defect = float(np.abs(data[:, 1:spec.grid.N] @ bm.Gab.T
                                 ).sum(axis=2).max())
    kernel_ok = kernel_defect <= tol * (1.0 + one_norm(bm.Gab)) * scale

    inv_defect = kernel_invariance_defect(bm.Gab, pd.reduced, bm.kernel)
    inv_ok = inv_defect <= tol * (1.0 + one_norm(pd.reduced) * one_norm(bm.Gab))

    return ConsistencyReport(bool(proj_ok), proj_defect,
                             bool(kernel_ok), kernel_defect,
                             bool(inv_ok), inv_defect, scale)


def raise_on_inconsistency(report: ConsistencyReport) -> None:
    if not report.projector_fixes_data:
        raise ConsistencyViolation(
            f"pencil projector alters the initial data "
            f"(defect {report.projector_defect:.3e})",
            condition="projector-data-mismatch")
    if not report.data_in_kernel:
        raise ConsistencyViolation(
            f"interior data leaves the endpoint kernel "
            f"(defect {report.kernel_defect:.3e})",
            condition="data-outside-boundary-kernel")
    if not report.kernel_invariant:
        raise ConsistencyViolation(
            f"endpoint kernel is not invariant under the reduced operator "
            f"(defect {report.invariance_defect:.3e})",
            condition="boundary-kernel-not-invariant")


@dataclass
class ModeAmplitudes:
    """Branch amplitudes of a run of modes; row idx is spatial mode
    mode_index + idx.  P, Q are (modes, m); rho, residual are (modes,)."""

    mode_index: int
    P: np.ndarray
    Q: np.ndarray
    rho: np.ndarray
    residual: np.ndarray


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
    coordinates then decides, mode by mode, whether they hold.
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
    rhos = propagators.rho
    failed = np.flatnonzero(res > limit)
    if failed.size:
        idx = int(failed[0])
        l = propagators.mode_index + idx
        bad = rho_condition_violations(pd, rhos[idx])
        if bad:
            raise RhoDegenerate(
                f"mode {l}: propagator roots coincide at reduced "
                f"eigenvalue(s) {bad} and leave the mode system unsolvable "
                f"(residual {res[idx]:.3e})")
        raise ConsistencyViolation(
            f"mode {l} amplitude system unsolvable "
            f"(residual {res[idx]:.3e})",
            condition="mode-equations-unsolvable")
    return ModeAmplitudes(propagators.mode_index, P, Q,
                          np.real(rhos).astype(float), res)


@dataclass
class ModeStability:
    """Propagator power growth for one mode."""

    l: int
    rho_l: float
    max_power_norm_plus: float
    max_power_norm_minus: float
    growth_rate: float
    bound_ok: bool


@dataclass
class StabilityReport:
    """Growth of the propagator powers and of the assembled solution."""

    modes: List[ModeStability]
    growth_rate: float
    sup_norm: float
    envelope: float
    power_bound_ok: bool
    bounded: bool


@dataclass
class DiscreteSolution:
    """Solved grid with every mode's stacked amplitudes, the two
    endpoint_maps that extended it to the endpoints, and quality reports."""

    U: np.ndarray  # (N+1, M+1, m) complex
    modes: ModeAmplitudes
    endpoint_maps: tuple[np.ndarray, np.ndarray]
    reports: Dict[str, object] = field(default_factory=dict)


def assemble_solution(spec: ProblemSpec, propagators: PropagatorPair,
                      amps: ModeAmplitudes, eigenpairs: np.recarray
                      ) -> DiscreteSolution:
    """Superpose the modes on interior nodes and extend to the endpoints.

    ``propagators`` is the (modes, m, m) stack, stepped for all modes at
    once, and the (modes, N-1) eigenvectors ``eigenpairs.v`` carry it to
    the grid.  Endpoint rows come from endpoint_maps, formed once here and
    kept on the solution; inconsistency of either endpoint relation raises
    BoundaryExtensionInconsistent naming the first failing step.
    """
    grid = spec.grid
    N, M, m = grid.N, grid.M, spec.m
    tol = spec.tolerances.residual
    U = np.zeros((N + 1, M + 1, m), dtype=complex)
    # tables[l, j] = Z0_l^j P_l + Z1_l^j Q_l, both branches stepped as one
    # (branch, modes, m, 1) stack of columns
    Z = np.stack([propagators.Z0, propagators.Z1])
    cur = np.stack([amps.P, amps.Q])[..., None]
    tables = np.empty((amps.P.shape[0], M + 1, m), dtype=complex)
    tables[:, 0] = cur.sum(axis=0)[..., 0]
    for j in range(1, M + 1):
        cur = Z @ cur
        tables[:, j] = cur.sum(axis=0)[..., 0]
    U[1:N] = np.einsum("li,ljm->ijm", eigenpairs.v, tables)

    maps = endpoint_maps(spec.A1, spec.A2, spec.B1, spec.B2, N,
                         spec.tolerances.rank)
    U[0] = U[1] @ maps[0].T
    U[N] = U[N - 1] @ maps[1].T
    relations = ((spec.A1 - N * spec.A2, U[0], -N * (U[1] @ spec.A2.T)),
                 (spec.B1 + N * spec.B2, U[N], N * (U[N - 1] @ spec.B2.T)))
    unsolved = np.array([
        np.abs(vals @ op.T - rhs).sum(axis=1)
        > tol * (1.0 + np.abs(rhs).sum(axis=1))
        for op, vals, rhs in relations])  # (side, M+1)
    if unsolved.any():
        j = int(np.argmax(unsolved.any(axis=0)))
        side = "left" if unsolved[0, j] else "right"
        raise BoundaryExtensionInconsistent(
            f"{side} endpoint relation unsolvable at step j={j}")
    return DiscreteSolution(U, amps, maps)


def stability_report(spec: ProblemSpec, propagators: PropagatorPair,
                     amps: ModeAmplitudes, eigenpairs: np.recarray,
                     sol: DiscreteSolution) -> StabilityReport:
    """Power growth of each mode's propagators and of the assembled grid.

    The growth rate of a mode is (max_j |Z^j|^(1/j) - 1)/k over both
    branches; the power norms must stay under exp(T * rate) up to a small
    slack, and the solution sup-norm under the mode-wise envelope.  The
    powers of the (modes, m, m) stacks, the bounds and the envelope are
    formed for all modes at once.
    """
    grid = spec.grid
    k, T, M = grid.k, grid.T, grid.M
    Z = np.stack([propagators.Z0, propagators.Z1])  # (branch, modes, m, m)
    power = Z.copy()
    peak = np.zeros(Z.shape[:2])
    rate = np.full(Z.shape[1], -np.inf)
    for j in range(1, M + 1):
        norms = np.abs(power).sum(axis=-2).max(axis=-1)  # 1-norms of Z^j
        np.maximum(peak, norms, out=peak)
        grown = np.where(norms > 0, (norms ** (1.0 / j) - 1.0) / k, -np.inf)
        rate = np.maximum(rate, grown.max(axis=0))
        if j < M:
            power = power @ Z
    # -1/k where both propagators are identically zero
    rate = np.where(np.isfinite(rate), rate, -1.0 / k)
    max0, max1 = peak
    bound = np.where(rate >= 0, np.exp(T * np.maximum(rate, 0.0))
                     * (1.0 + 1e-6), 1.0)
    ok = np.maximum(max0, max1) <= bound
    rows = [ModeStability(l, *vals) for l, *vals in zip(
        range(amps.mode_index, amps.mode_index + ok.size), amps.rho.tolist(),
        max0.tolist(), max1.tolist(), rate.tolist(), ok.tolist())]
    all_ok = bool(ok.all())

    vmax = np.abs(extend_eigenfunction(eigenpairs, spec.sl_problem())
                  ).max(axis=1)
    envelope = float(((np.maximum(max0, 1.0) * np.abs(amps.P).sum(axis=1)
                       + np.maximum(max1, 1.0) * np.abs(amps.Q).sum(axis=1))
                      * vmax).sum())
    boundary_amp = max(1.0, *(one_norm(side) for side in sol.endpoint_maps))
    envelope = boundary_amp * envelope + 1e-9

    sup = float(np.abs(sol.U).sum(axis=2).max()) if sol.U.size else 0.0
    rate_all = max(rate.tolist(), default=0.0)
    return StabilityReport(rows, rate_all, sup, envelope, all_ok,
                           bool(sup <= envelope and all_ok))


def solve_problem(spec: ProblemSpec,
                  trace: Optional[Dict[str, object]] = None
                  ) -> DiscreteSolution:
    """Full pipeline: eigenbasis, pencil, admissibility, modes, assembly.

    When ``trace`` is a dict, intermediate objects are recorded under the
    keys eigenpairs/pencil/boundary/consistency/modes/stability as they
    are produced, including on failure part-way through.
    """
    def note(key: str, value) -> None:
        if trace is not None:
            trace[key] = value

    slp = spec.sl_problem()
    eigenpairs = solve_psd(slp)
    note("eigenpairs", eigenpairs)

    pd = build_pencil(spec.E, spec.A, spec.gamma, spec.tolerances.rank)
    note("pencil", pd)

    bm = build_boundary_matrix(spec)
    note("boundary", bm)

    report = check_consistency(spec, pd, bm)
    note("consistency", report)
    raise_on_inconsistency(report)

    interior = slice(1, spec.grid.N)
    fc = expand(spec.F[interior], eigenpairs, slp)
    gc = expand(spec.F[interior] + spec.grid.k * spec.Gv[interior],
                eigenpairs, slp)

    rhos = spec.mode_rho(np.arange(1, len(eigenpairs) + 1), eigenpairs.lam)
    propagators = build_propagators(pd, rhos, mode_index=1,
                                    require_invertible_difference=False)
    amps = solve_mode_coefficients(spec, pd, propagators, fc, gc)
    note("modes", amps)

    sol = assemble_solution(spec, propagators, amps, eigenpairs)
    stab = stability_report(spec, propagators, amps, eigenpairs, sol)
    sol.reports["stability"] = stab
    note("stability", stab)
    note("solution", sol)
    return sol
