"""Independent residual oracle for candidate grid solutions.

Evaluates the raw finite-difference equations — interior stencil,
endpoint relations, initial data — on any grid U, sharing no code with
the spectral construction: only the dense matrix utilities are used.
The interior stencil runs over blocks of 128 KiB of grid, so the oracle
needs O(block) memory beyond the grid, and checks a real grid in real
arithmetic, with the complex stencil's defects bit for bit wherever the
matrix products allow (see interior_residual).
The reference takes the minimum-norm solution of every discrete equation
at once by marching the stacked system level by level: the initial rows
give levels 0 and 1, one factorised level operator gives levels 2 to
M-1, and a second gives level M and the stack's kernel, which lives at
that level alone.  Two small factorisations serve any number of levels,
in real arithmetic when the coefficients are real.

The ``spec`` arguments are duck-typed problem descriptions carrying the
attributes m, E, A, A1, A2, B1, B2, F, Gv and grid (with N, k, M, r).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentSystem, SingularLevelOperator, SizeCapExceeded
from .matrix_core import DEFAULT_RANK_TOL, _solve_kept, _svd_rank, peak_norm

# Bytes the reference may hold at once (see _reference_bytes).
SIZE_CAP = 2 ** 28
# Summed row defect the reference may leave, relative to the data.
REFERENCE_TOL = 1e-9
# bytes of grid per block of interior_residual (_BLOCK_BYTES // (itemsize
# (M-1) m) i rows, at least one)
_BLOCK_BYTES = 1 << 17


def data_normalizer(spec) -> float:
    """1 + max(position data norm, k * velocity data norm).

    The residuals compare grid values and one-step increments, and the
    velocity data enter those as k*Gv, so Gv is scaled by k here.  The
    solver's ProblemSpec.data_scale tests the data vectors themselves and
    leaves Gv unscaled; it is not imported, so the oracle shares only the
    dense utilities (peak_norm) with the construction.
    """
    return 1.0 + max(peak_norm(spec.F), spec.grid.k * peak_norm(spec.Gv))


@dataclass
class ResidualReport:
    """Maximum relative defects of a grid against the discrete equations."""

    interior_max: float
    left_bc_max: float
    right_bc_max: float
    init_pos_max: float
    init_vel_max: float
    normalizer: float

    DEFECTS = ("interior_max", "left_bc_max", "right_bc_max",
               "init_pos_max", "init_vel_max")

    @property
    def worst(self) -> float:
        """The largest of the five defects, or NaN if any is NaN."""
        return float(np.max([getattr(self, name) for name in self.DEFECTS]))


def _stencil_peak(U, E, A, grid) -> float:
    """Largest nodal 1-norm of the interior stencil's defect, formed over
    blocks of whole i rows of about _BLOCK_BYTES of grid."""
    N, M = grid.N, grid.M
    r2 = grid.r ** 2
    rows = max(1, _BLOCK_BYTES // (U.itemsize * (M - 1) * U.shape[-1]))
    maxima = []
    for lo in range(1, N, rows):
        hi = min(lo + rows, N)
        twice = 2.0 * U[lo:hi, 1:M]
        dtt = U[lo:hi, 2:M + 1] - twice + U[lo:hi, 0:M - 1]
        dxx = U[lo + 1:hi + 1, 1:M] - twice + U[lo - 1:hi - 1, 1:M]
        res = dtt @ E.T - r2 * (dxx @ A.T)
        maxima.append(peak_norm(res))
    return float(np.max(maxima))


def interior_residual(U, E, A, grid, normalizer: float = 1.0) -> float:
    """Max relative defect of the interior two-level stencil.

    Checks E*(U(i,j+1) - 2U(i,j) + U(i,j-1)) = r^2 A*(U(i+1,j) - 2U(i,j)
    + U(i-1,j)) over 0 < i < N, 0 < j < M.  The stencil is formed over
    blocks of whole i rows of about 128 KiB of grid (8192 complex or
    16384 real values), so it holds O(block + M m) values beyond the
    grid; each block's defects are the whole grid's, bit for bit, and
    np.max of the block maxima keeps a NaN.

    When no entry of U, E or A has a non-zero imaginary part, as for a
    real problem's grid, the stencil runs in real arithmetic on their
    real parts.  Its defects are then the complex stencil's bit for bit
    wherever numpy's real and complex matrix products add in the same
    order, as with OpenBLAS 0.3.31 on x86-64 at every M > 2 and m < 32;
    elsewhere they may differ in the last bits.  A non-finite defect is
    recomputed in complex arithmetic, whose products turn inf * 0j into
    NaN, so that a grid with an inf node reads as before.
    """
    U = np.asarray(U, dtype=complex)
    if grid.N < 2 or grid.M < 2:
        return 0.0
    Em = np.asarray(E, dtype=complex)
    Am = np.asarray(A, dtype=complex)
    if not (U.imag.any() or Em.imag.any() or Am.imag.any()):
        peak = _stencil_peak(U.real, Em.real, Am.real, grid)
        if np.isfinite(peak):
            return peak / normalizer
    return _stencil_peak(U, Em, Am, grid) / normalizer


def boundary_residual(U, spec,
                      normalizer: float | None = None) -> tuple[float, float]:
    """Max relative defects of the two endpoint relations over 0 < j <= M.

    Left: A1 U(0,j) + N A2 (U(1,j) - U(0,j)) = 0; right uses B1, B2 at
    i = N with a backward difference.
    """
    U = np.asarray(U, dtype=complex)
    if normalizer is None:
        normalizer = data_normalizer(spec)
    N, M = spec.grid.N, spec.grid.M
    cols = slice(1, M + 1)
    left = (U[0, cols] @ spec.A1.T
            + N * (U[1, cols] - U[0, cols]) @ spec.A2.T)
    right = (U[N, cols] @ spec.B1.T
             + N * (U[N, cols] - U[N - 1, cols]) @ spec.B2.T)
    return peak_norm(left) / normalizer, peak_norm(right) / normalizer


def initial_residual(U, spec,
                     normalizer: float | None = None) -> tuple[float, float]:
    """Max relative defects of the initial position and velocity rows
    over all nodes 0 <= i <= N."""
    U = np.asarray(U, dtype=complex)
    if normalizer is None:
        normalizer = data_normalizer(spec)
    k = spec.grid.k
    pos = U[:, 0] - spec.F
    vel = (U[:, 1] - U[:, 0]) / k - spec.Gv
    return peak_norm(pos) / normalizer, peak_norm(vel) / normalizer


def residual_report(U, spec) -> ResidualReport:
    """All five defect maxima of a grid against one problem."""
    norm = data_normalizer(spec)
    inter = interior_residual(U, spec.E, spec.A, spec.grid, norm)
    left, right = boundary_residual(U, spec, norm)
    pos, vel = initial_residual(U, spec, norm)
    return ResidualReport(inter, left, right, pos, vel, norm)


@dataclass
class ReferenceSolution:
    """Minimum-norm solution of the full stacked discrete system.

    ``kernel`` is an orthonormal basis (m(N+1) x q) of the stack's null
    space at level M, the only level it reaches: the solution family is
    U with ``kernel @ z`` added to its last level, over arbitrary z, and
    ``U`` is orthogonal to it.  ``residual`` is the 1-norm of the stack's
    row defects at ``U``.
    """

    U: np.ndarray  # (N+1, M+1, m)
    kernel: np.ndarray
    residual: float


def _reference_bytes(N: int, M: int, m: int, itemsize: int) -> int:
    """Upper bound on the reference's working memory: eight arrays of the
    level operator's size (the two operators, the mid-level operator's LU
    factors and map, the last level's SVD factors and LAPACK's workspace)
    and eight of the grid's (the levels and the residual's temporaries),
    of ``itemsize`` bytes per entry."""
    n = m * (N + 1)
    return itemsize * 8 * n * (n + M + 1)


def _real_if_possible(arrays) -> list:
    """The arrays as float when no imaginary part is non-zero, else as
    complex."""
    arrays = [np.asarray(X) for X in arrays]
    if any(np.iscomplexobj(X) and X.imag.any() for X in arrays):
        return [X.astype(complex) for X in arrays]
    return [X.real.astype(float) for X in arrays]


def brute_force_reference(spec) -> ReferenceSolution:
    """Minimum-norm solution of every discrete equation at once, marched
    level by level.

    The stack's rows are the interior stencil, both endpoint relations
    at every level and the two initial rows.  Levels 0 and 1 are the
    initial data; the endpoint rows there and the level-1 stencil's
    constraint rows test it.  Level j+1 (2 <= j+1 <= M) is fixed by the
    rank(E) rows of the level-j stencil that E does not annihilate, both
    endpoint relations at level j+1 and, below M, the level-(j+1) stencil
    times W^H, where W spans the left null space of E; as W^H E = 0 these
    read r^2 W^H A dxx U(., j+1) = 0.  They are invertible row operations
    per node, so the march has the stack's own solutions.  The singular
    values of the square mid-level operator decide its rank, with the
    relative cut DEFAULT_RANK_TOL, and one LU solve gives the map from
    the rows with a non-zero right side to the next level, which serves
    levels 2 to M-1; an SVD of the level-M operator gives the
    minimum-norm last level and the kernel.

    Raises SizeCapExceeded, before any level-sized array exists, when
    the working memory would pass SIZE_CAP bytes; SingularLevelOperator
    when the mid-level operator has a kernel (the march would not be
    exact); and InconsistentSystem when the data break the rows at
    levels 0 and 1, or when the stack's row defects, summed level by
    level, pass REFERENCE_TOL relative to the data.
    """
    N, M, m = spec.grid.N, spec.grid.M, spec.m
    E, A, A1, A2, B1, B2 = _real_if_possible(
        (spec.E, spec.A, spec.A1, spec.A2, spec.B1, spec.B2))
    F, G = _real_if_possible((spec.F, spec.grid.k * np.asarray(spec.Gv)))
    dtype = np.result_type(E, F, G)  # the levels' type
    need = _reference_bytes(N, M, m, dtype.itemsize)
    if need > SIZE_CAP:
        raise SizeCapExceeded(
            f"the reference needs about {need} bytes, over the cap "
            f"{SIZE_CAP}")
    r2 = spec.grid.r ** 2
    n = m * (N + 1)

    # rows of E's left singular basis: Pr keeps the stencil rows that
    # reach the next level, Wh the constraint rows that do not
    Ue, _, _, rank_E = _svd_rank(E, DEFAULT_RANK_TOL)
    Pr, Wh = Ue[:, :rank_E].conj().T, Ue[:, rank_E:].conj().T
    PE, PA = Pr @ E, Pr @ A
    # endpoint rows: left on U(0) and U(1), right on U(N-1) and U(N)
    left0, left1, right1, right0 = A1 - N * A2, N * A2, -N * B2, B1 + N * B2
    fixing = (N - 1) * rank_E
    L_last = np.zeros((fixing + 2 * m, n), dtype=E.dtype)
    L_last[:fixing, m:N * m] = np.kron(np.eye(N - 1), PE)
    ends = L_last[fixing:]
    ends[:m, :2 * m] = np.hstack([left0, left1])
    ends[m:, (N - 1) * m:] = np.hstack([right1, right0])

    def dxx(u):
        return u[..., 2:, :] - 2.0 * u[..., 1:N, :] + u[..., :N - 1, :]

    def endpoint_defects(u):
        left = u[:, 0] @ left0.T + u[:, 1] @ left1.T
        right = u[:, N - 1] @ right1.T + u[:, N] @ right0.T
        return np.abs(left).sum(axis=1) + np.abs(right).sum(axis=1)

    levels = np.empty((M + 1, N + 1, m), dtype=dtype)
    levels[0] = F
    levels[1] = F + G

    def fixing_rhs(j):
        """Right side of the level-j stencil rows that fix level j+1."""
        u = levels[j]
        return ((2.0 * u - levels[j - 1])[1:N] @ PE.T
                + r2 * dxx(u) @ PA.T).reshape(-1)

    bound = REFERENCE_TOL * (1.0 + np.abs(F).sum() + np.abs(G).sum())
    defect = np.zeros(M + 1)
    # the position rows hold exactly
    defect[1] = np.abs(levels[1] - levels[0] - G).sum()
    defect[:2] += endpoint_defects(levels[:2])
    data_defect = defect[:2].sum()
    if M >= 2:  # the level-1 stencil's constraint rows
        W_proj = Wh.conj().T @ Wh
        data_defect += np.abs(r2 * dxx(levels[1]) @ A.T @ W_proj.T).sum()
    if not data_defect <= bound:
        raise InconsistentSystem(
            f"initial data break the stacked system at levels 0 and 1 "
            f"(residual {data_defect:.3e})")

    if M >= 3:
        L_mid = np.vstack([L_last, np.kron(
            np.eye(N - 1, N + 1) - 2.0 * np.eye(N - 1, N + 1, 1)
            + np.eye(N - 1, N + 1, 2), r2 * (Wh @ A))])
        s = np.linalg.svd(L_mid, compute_uv=False)
        rank = np.count_nonzero(s > DEFAULT_RANK_TOL * s[0])
        if rank < n:
            raise SingularLevelOperator(
                f"the level operator of levels 2 to M-1 has a kernel of "
                f"dimension {n - rank}; one level does not fix the next")
        # its inverse, restricted to the rows with a non-zero right side
        step = np.linalg.solve(L_mid, np.eye(n, fixing)).astype(
            levels.dtype, copy=False)
        for j in range(1, M - 1):
            levels[j + 1] = (step @ fixing_rhs(j)).reshape(N + 1, m)
    if M >= 2:
        rhs = np.zeros((L_last.shape[0], 1), dtype=levels.dtype)
        rhs[:fixing, 0] = fixing_rhs(M - 1)
        # the minimum-norm last level; the stack's residual below tests
        # whether it solves the rows
        U_last, s, Vh, rank = _svd_rank(L_last, DEFAULT_RANK_TOL)
        levels[M] = _solve_kept(U_last, s, Vh, rank, rhs).reshape(N + 1, m)
        kernel = Vh[rank:].conj().T
        # endpoint rows at levels 2..M and stencil rows at levels 1..M-1
        dtt = levels[2:, 1:N] - 2.0 * levels[1:M, 1:N] + levels[:M - 1, 1:N]
        defect[2:] += endpoint_defects(levels[2:]) + np.abs(
            dtt @ E.T - r2 * dxx(levels[1:M]) @ A.T).sum(axis=(1, 2))
    else:
        kernel = np.zeros((n, 0), dtype=E.dtype)
    total = np.cumsum(defect)
    bad = np.flatnonzero(~(total <= bound))
    if bad.size:
        raise InconsistentSystem(
            f"stacked discrete system inconsistent from level {bad[0]} "
            f"(residual {total[-1]:.3e})")
    return ReferenceSolution(levels.transpose(1, 0, 2).astype(complex),
                             kernel, float(total[-1]))


def reference_deviation(U, ref: ReferenceSolution, projector,
                        spec) -> float:
    """Distance from U to the reference's solution family, on the
    propagating subspace.

    The difference's last level is first stripped of its component along
    the free directions (kernel alignment; they live at level M only),
    then each node is restricted by the supplied projector; the result is
    the max nodal 1-norm relative to the data normalizer.
    """
    d = np.asarray(U, dtype=complex) - ref.U
    Z = ref.kernel
    last = d[:, -1].reshape(-1)
    d[:, -1] = (last - Z @ (Z.conj().T @ last)).reshape(d.shape[0], -1)
    nodes = d.reshape(-1, spec.m) @ np.asarray(projector, dtype=complex).T
    return peak_norm(nodes) / data_normalizer(spec)
