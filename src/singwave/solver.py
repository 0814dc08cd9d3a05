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
    as_matrix,
    matrix_function,
    kernel_invariance_defect,
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
    EigenPair,
    SLProblem,
    expand,
    extend_eigenfunction,
    solve_psd,
)


@dataclass
class Tolerances:
    """Relative tolerances used throughout a solve."""

    rank: float = 1e-10
    residual: float = 1e-8
    consistency: float = 1e-8


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
        if int(N) != N or N < 2:
            raise ParseError(f"N must be an integer >= 2, got {N}")
        N = int(N)
        if not (k > 0) or not np.isfinite(k):
            raise ParseError(f"time step k must be positive, got {k}")
        if not (T > 0) or not np.isfinite(T):
            raise ParseError(f"horizon T must be positive, got {T}")
        steps = T / k
        M = int(round(steps))
        if M < 1 or abs(steps - M) > 1e-9 * max(1.0, steps):
            raise ParseError(
                f"T/k = {steps!r} is not an integer number of steps")
        return cls(N=N, k=float(k), T=float(T), M=M, r=float(k) * N)


def _as_grid_data(values, N: int, m: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.shape != (N + 1, m):
        raise ShapeError(
            f"{name} must have shape ({N + 1}, {m}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{name} contains non-finite entries")
    return arr


@dataclass
class ProblemSpec:
    """Complete description of one discrete mixed problem."""

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
        if int(self.m) != self.m or self.m < 1:
            raise ShapeError(f"system dimension must be >= 1, got {self.m}")
        self.m = int(self.m)
        for name in ("E", "A", "A1", "A2", "B1", "B2"):
            M = as_matrix(getattr(self, name), name)
            if M.shape != (self.m, self.m):
                raise ShapeError(
                    f"{name} must be {self.m}x{self.m}, got {M.shape}")
            setattr(self, name, M)
        self.alpha = float(self.alpha)
        self.beta = float(self.beta)
        self.F = _as_grid_data(self.F, self.grid.N, self.m, "F")
        self.Gv = _as_grid_data(self.Gv, self.grid.N, self.m, "Gv")

    def data_scale(self) -> float:
        """1 + largest nodal 1-norm over both data grids."""
        fmax = float(np.abs(self.F).sum(axis=1).max()) if self.F.size else 0.0
        gmax = float(np.abs(self.Gv).sum(axis=1).max()) if self.Gv.size else 0.0
        return 1.0 + max(fmax, gmax)

    def sl_problem(self) -> SLProblem:
        return SLProblem(self.grid.N, self.alpha, self.beta)

    def mode_rho(self, l: int, lam: float) -> float:
        """Step-ratio parameter for mode l (1-based): -r^2 * lambda_l
        unless overridden."""
        if self.rho_override is None:
            return float(-self.grid.r ** 2 * lam + 0.0)
        if np.isscalar(self.rho_override):
            return float(self.rho_override)
        return float(self.rho_override[l - 1])


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


def extend_to_endpoints(first, last, A1, A2, B1, B2, N: int,
                        rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint rows U(0,j), U(N,j) from the rows U(1,j), U(N-1,j).

    ``first`` and ``last`` stack rows along leading axes, shape (..., m).
    Each row is the minimum-norm solution, with singular values below
    rank_tol (relative) cut, of the discrete endpoint relation
    (A1 - N*A2) U(0,j) = -N*A2 U(1,j) or (B1 + N*B2) U(N,j) = N*B2 U(N-1,j).
    """
    left = np.linalg.pinv(A1 - N * A2, rcond=rank_tol)
    right = np.linalg.pinv(B1 + N * B2, rcond=rank_tol)
    u0 = left @ (-N * (A2 @ np.asarray(first)[..., None]))
    uN = right @ (N * (B2 @ np.asarray(last)[..., None]))
    return u0[..., 0], uN[..., 0]


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

    proj_defect = 0.0
    for data in (spec.F, spec.Gv):
        delta = data @ pd.projector.T - data
        if delta.size:
            proj_defect = max(proj_defect,
                              float(np.abs(delta).sum(axis=1).max()))
    proj_ok = proj_defect <= tol * (1.0 + one_norm(pd.projector)) * scale

    kernel_defect = 0.0
    interior = slice(1, spec.grid.N)
    for data in (spec.F, spec.Gv):
        mapped = data[interior] @ bm.Gab.T
        if mapped.size:
            kernel_defect = max(kernel_defect,
                                float(np.abs(mapped).sum(axis=1).max()))
    kernel_ok = kernel_defect <= tol * (1.0 + one_norm(bm.Gab)) * scale

    inv_defect = kernel_invariance_defect(bm.Gab, pd.reduced,
                                          spec.tolerances.rank)
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
class ModeCoefficients:
    """Amplitudes of the two propagating branches of one spatial mode."""

    l: int
    P_l: np.ndarray
    Q_l: np.ndarray
    rho_l: float
    residual: float


def _degenerate_directions_compatible(pd: PencilData, rho: complex,
                                      fhat: np.ndarray, ghat: np.ndarray,
                                      bad: Sequence[complex],
                                      tol: float) -> Optional[str]:
    """Check solvability where the two propagator roots coincide.

    At a coinciding root z* the two branch equations collapse to
    z* * x = ghat on that eigenspace while x = fhat there, so the data
    must satisfy z* * fhat = ghat on each degenerate eigenspace.  Returns
    a description of the worst violation, or None.
    """
    scale = 1.0 + one_norm(fhat) + one_norm(ghat)
    ctol = 1e-8 * (1.0 + one_norm(pd.reduced))
    targets = np.asarray(bad, dtype=complex)
    # spectral projectors onto each degenerate eigenspace, one stack entry
    # per coinciding eigenvalue
    projs = matrix_function(
        pd.reduced,
        lambda w: (np.abs(w - targets[:, None]) <= ctol).astype(float))
    worst: Optional[str] = None
    worst_def = 0.0
    for d, proj_d in zip(bad, projs):
        zstar = 1.0 + rho * d / 2.0
        defect = one_norm(proj_d @ (zstar * fhat - ghat))
        if defect > tol * scale and defect > worst_def:
            worst_def = defect
            worst = (f"coinciding roots at reduced eigenvalue {d}: data "
                     f"defect {defect:.3e} exceeds {tol * scale:.3e}")
    return worst


def solve_mode_coefficients(spec: ProblemSpec, pd: PencilData,
                            propagators: PropagatorPair,
                            fhat: np.ndarray, ghat: np.ndarray
                            ) -> ModeCoefficients:
    """Branch amplitudes P_l, Q_l of one mode from its propagator pair.

    fhat and ghat are the mode's coefficients in the initial position and
    in the first time level.  P_l + Q_l reproduces fhat and
    Z0 P_l + Z1 Q_l reproduces ghat; the stacked 2m x 2m system is solved
    minimum-norm and the result is projected onto the propagating
    subspace.
    """
    tol = spec.tolerances.residual
    l, rho = propagators.mode_index, propagators.rho
    bad = rho_condition_violations(pd, rho)
    if bad:
        failure = _degenerate_directions_compatible(pd, rho, fhat, ghat,
                                                    bad, tol)
        if failure is not None:
            raise RhoDegenerate(f"mode {l}: {failure}")

    m = spec.m
    K = np.zeros((2 * m, 2 * m), dtype=complex)
    K[:m, :m] = np.eye(m)
    K[:m, m:] = np.eye(m)
    K[m:, :m] = propagators.Z0
    K[m:, m:] = propagators.Z1
    rhs = np.concatenate([fhat, ghat])
    xy, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    P_l = pd.projector @ xy[:m]
    Q_l = pd.projector @ xy[m:]
    res = one_norm(P_l + Q_l - fhat) + one_norm(
        propagators.Z0 @ P_l + propagators.Z1 @ Q_l - ghat)
    if res > tol * (1.0 + one_norm(fhat) + one_norm(ghat)):
        if bad:
            raise RhoDegenerate(
                f"mode {l}: coinciding propagator roots leave the mode "
                f"system unsolvable (residual {res:.3e})")
        raise ConsistencyViolation(
            f"mode {l} amplitude system unsolvable (residual {res:.3e})",
            condition="mode-equations-unsolvable")
    return ModeCoefficients(l, P_l, Q_l, float(np.real(rho)), float(res))


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
    """Solved grid with its per-mode amplitudes and quality reports."""

    U: np.ndarray  # (N+1, M+1, m) complex
    modes: List[ModeCoefficients]
    reports: Dict[str, object] = field(default_factory=dict)


def assemble_solution(spec: ProblemSpec, pd: PencilData,
                      propagators: PropagatorPair,
                      coeffs: Sequence[ModeCoefficients],
                      eigenpairs: Sequence[EigenPair]
                      ) -> DiscreteSolution:
    """Superpose the modes on interior nodes and extend to the endpoints.

    ``propagators`` is the (modes, m, m) stack, stepped for all modes at
    once.  Endpoint rows come from extend_to_endpoints; inconsistency of
    either endpoint relation raises BoundaryExtensionInconsistent naming
    the first failing step.
    """
    grid = spec.grid
    N, M, m = grid.N, grid.M, spec.m
    tol = spec.tolerances.residual
    U = np.zeros((N + 1, M + 1, m), dtype=complex)
    V = np.stack([pair.v for pair in eigenpairs], axis=0)  # (modes, N-1)
    # tables[l, j] = Z0_l^j P_l + Z1_l^j Q_l, both branches stepped as one
    # (branch, modes, m, 1) stack of columns
    Z = np.stack([propagators.Z0, propagators.Z1])
    cur = np.stack([[c.P_l for c in coeffs],
                    [c.Q_l for c in coeffs]])[..., None]
    tables = np.empty((len(coeffs), M + 1, m), dtype=complex)
    tables[:, 0] = cur.sum(axis=0)[..., 0]
    for j in range(1, M + 1):
        cur = Z @ cur
        tables[:, j] = cur.sum(axis=0)[..., 0]
    U[1:N] = np.einsum("li,ljm->ijm", V, tables)

    U[0], U[N] = extend_to_endpoints(U[1], U[N - 1], spec.A1, spec.A2,
                                     spec.B1, spec.B2, N,
                                     spec.tolerances.rank)
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

    init_defect = float(np.abs(U[1:N, 0] - spec.F[1:N]).sum(axis=1).max()
                        ) if N > 1 else 0.0
    sol = DiscreteSolution(U, list(coeffs))
    sol.reports["initial_match"] = init_defect / spec.data_scale()
    return sol


def stability_report(spec: ProblemSpec, pd: PencilData,
                     propagators: PropagatorPair,
                     coeffs: Sequence[ModeCoefficients],
                     eigenpairs: Sequence[EigenPair],
                     sol: DiscreteSolution) -> StabilityReport:
    """Power growth of each mode's propagators and of the assembled grid.

    The growth rate of a mode is (max_j |Z^j|^(1/j) - 1)/k over both
    branches; the power norms must stay under exp(T * rate) up to a small
    slack, and the solution sup-norm under the mode-wise envelope.  The
    powers of the (modes, m, m) stacks are formed for all modes at once.
    """
    grid = spec.grid
    k, T, M, N = grid.k, grid.T, grid.M, grid.N
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

    rows: List[ModeStability] = []
    envelope = 0.0
    slp = spec.sl_problem()
    for idx, coeff in enumerate(coeffs):
        r = float(rate[idx])
        bound = float(np.exp(T * max(r, 0.0)) * (1.0 + 1e-6)) \
            if r >= 0 else 1.0
        ok = max(max0[idx], max1[idx]) <= bound
        rows.append(ModeStability(coeff.l, coeff.rho_l, float(max0[idx]),
                                  float(max1[idx]), r, bool(ok)))
        vext = extend_eigenfunction(eigenpairs[idx], slp)
        vmax = float(np.abs(vext).max())
        envelope += (max(max0[idx], 1.0) * one_norm(coeff.P_l)
                     + max(max1[idx], 1.0) * one_norm(coeff.Q_l)) * vmax
    all_ok = all(row.bound_ok for row in rows)

    # row c of each result is the image of e_c: a column of the endpoint map
    eye = np.eye(spec.m)
    left_map, right_map = extend_to_endpoints(eye, eye, spec.A1, spec.A2,
                                              spec.B1, spec.B2, N,
                                              spec.tolerances.rank)
    boundary_amp = max(1.0, one_norm(left_map.T), one_norm(right_map.T))
    envelope = boundary_amp * envelope + 1e-9

    sup = float(np.abs(sol.U).sum(axis=2).max()) if sol.U.size else 0.0
    rate_all = max((row.growth_rate for row in rows), default=0.0)
    report = StabilityReport(rows, float(rate_all), sup, float(envelope),
                             bool(all_ok), bool(sup <= envelope and all_ok))
    return report


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

    rhos = [spec.mode_rho(l, pair.lam)
            for l, pair in enumerate(eigenpairs, start=1)]
    propagators = build_propagators(pd, rhos, mode_index=1,
                                    require_invertible_difference=False)
    coeffs = [solve_mode_coefficients(spec, pd, propagators.mode(idx),
                                      fc[idx], gc[idx])
              for idx in range(len(eigenpairs))]
    note("modes", coeffs)

    sol = assemble_solution(spec, pd, propagators, coeffs, eigenpairs)
    stab = stability_report(spec, pd, propagators, coeffs, eigenpairs, sol)
    sol.reports["stability"] = stab
    note("stability", stab)
    note("solution", sol)
    return sol
