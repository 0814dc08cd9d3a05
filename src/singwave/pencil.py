"""Regularization of a singular matrix pair and time-step propagators.

Given square matrices E and A with E possibly singular, a shift gamma is
chosen so that gamma*E + A is invertible.  The shifted pair
Ehat = (gamma*E + A)^-1 E, Ahat = (gamma*E + A)^-1 A commutes, and the
core-nilpotent split of Ehat yields the Drazin projector onto the
subspace where the two-level recurrence

    Ehat G(j+1) - (2 Ehat + rho Ahat) G(j) + Ehat G(j-1) = 0

has propagating solutions.  The propagators Z0, Z1 are the two roots of
the associated quadratic, taken as triangular matrix functions of the
reduced operator's triangular core in that split, so no eigenvector
basis is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (Gate, ModelRejection, NoRegularizingGamma, NoSquareRoot,
                     RhoDegenerate, SingularShift, UnstableStepRatio)
from .matrix_core import (
    DEFAULT_RANK_TOL,
    _square,
    as_matrix,
    core_nilpotent,
    matrix_function,
    one_norm,
    snap_real,
)

_COND_LIMIT = 1e8
_EZ_TOL = 1e-12
_LADDER = [0.0] + [c for n in range(1, 9)
                   for c in (complex(n), complex(-n), n * 1j, -n * 1j)]


def _cond1(M: np.ndarray) -> float:
    """1-norm condition number of M; inf, or NaN, where it is singular."""
    try:
        return float(np.abs(np.linalg.cond(M, 1)))
    except np.linalg.LinAlgError:
        return np.inf


def _square_pair(E, A) -> tuple[np.ndarray, np.ndarray]:
    """E and A as complex matrices of one square shape (else ShapeError)."""
    Em = _square(E, "E")
    return Em, as_matrix(A, "A", Em.shape)


def find_gamma(E, A) -> complex:
    """First shift from a fixed candidate ladder making gamma*E + A
    well conditioned.

    Candidates are 0, +-1, +-i, +-2, ... scaled by one_norm(A) /
    one_norm(E) (by 1 when either is zero), so the chosen position on the
    ladder does not change when E, or the pair, is rescaled;
    deterministic for fixed inputs.  Raises NoRegularizingGamma
    when no candidate brings the 1-norm condition number under the limit,
    ShapeError unless E and A are square with one shape.
    """
    Em, Am = _square_pair(E, A)
    e_norm = one_norm(Em)
    scale = (one_norm(Am) / e_norm if e_norm else 0.0) or 1.0
    for cand in _LADDER:
        gamma = cand * scale
        if _cond1(gamma * Em + Am) <= _COND_LIMIT:
            return complex(gamma)
    raise NoRegularizingGamma(
        "no shift in the candidate ladder makes the pair invertible")


@dataclass
class PencilData:
    """Shifted pair as its core-nilpotent split.

    projector = basis @ coords and reduced = basis @ core @ coords, with
    orthonormal basis columns and core upper triangular.  active marks
    the core diagonal entries d with |d| > band; the others count as 0.
    When none is active the propagating subspace is trivial.  gate
    (not-hyperbolic) fails at an active d farther than the band from
    [0, inf): z = rho*d then leaves [-4, 0] for every rho = -r^2 lambda
    < 0, so a propagator root leaves the unit circle on any grid.
    """

    gamma: complex
    projector: np.ndarray
    reduced: np.ndarray
    index_k: int
    basis: np.ndarray
    coords: np.ndarray
    core: np.ndarray
    band: float
    active: np.ndarray
    gate: Gate


@dataclass
class PropagatorPair:
    """Forward/backward time-step operators of a stack of modes.

    rho is a vector, one entry per mode; row idx of every field belongs
    to spatial mode idx + 1.  Z0, Z1, C and S are (modes, ., .), with
    Z0 = basis (C + S) coords and Z1 = basis (C - S) coords and C, S
    triangular in core coordinates.  Assembly takes closed-form powers
    of c +- s when the core, so C and S, is diagonal, else steps Z0, Z1.

    The root table, (modes, p) over the core diagonal: z = rho*d,
    coincide where the roots c +- s of p^2 - (2 + z) p + 1 = 0 coincide,
    and modulus = max |c +- s|, which is 1 exactly when z is real and in
    [-4, 0] (the von Neumann root condition).  gate (unstable-step-ratio)
    fails at the first (mode, d) with Re z < -4 where the roots do not
    coincide: |p+ + p-| = |2 + z| > 2, so a root leaves the unit circle.
    """

    rho: np.ndarray
    Z0: np.ndarray
    Z1: np.ndarray
    C: np.ndarray
    S: np.ndarray
    z: np.ndarray
    coincide: np.ndarray
    modulus: np.ndarray
    gate: Gate


def build_pencil(E, A, tol: float = DEFAULT_RANK_TOL) -> PencilData:
    """Form the shifted pair's Drazin projector and reduced operator.

    With the shift gamma of find_gamma, S = gamma*E + A is invertible, and
    Ehat = S^-1 E and Ahat = S^-1 A, from one solve, satisfy
    gamma*Ehat + Ahat = I (SingularShift when the solve misses that
    identity), so the two commute and share invariant subspaces.  One
    core-nilpotent split T diag(K, N) T^-1 of Ehat gives the projector
    Ehat EhatD = T diag(I, 0) T^-1 and, as EhatD Ahat = EhatD (I - gamma
    Ehat), the reduced operator T diag(K^-1 - gamma I, 0) T^-1.
    """
    Em, Am = _square_pair(E, A)
    gamma = find_gamma(Em, Am)
    m = Em.shape[0]
    shifted = np.linalg.solve(gamma * Em + Am, np.hstack([Em, Am]))
    Ehat, Ahat = shifted[:, :m], shifted[:, m:]
    defect = one_norm(gamma * Ehat + Ahat - np.eye(m))
    if defect > 1e-8 * (1.0 + abs(gamma)):
        raise SingularShift(
            f"shifted solve inaccurate (identity defect {defect:.3e})")
    dec = core_nilpotent(Ehat, tol)
    basis, coords = dec.T[:, : dec.p], dec.T_inv[: dec.p]
    core = dec.core_inverse() - gamma * np.eye(dec.p)
    diag = np.arange(dec.p)
    d = core[diag, diag] = snap_real(core[diag, diag])
    reduced = basis @ core @ coords
    band = tol * (1.0 + one_norm(reduced))
    active = np.abs(d) > band
    off = np.where(active, np.maximum(-d.real, np.abs(d.imag) - band),
                   -np.inf)
    gate = Gate("hyperbolic", "not-hyperbolic", "", off.max(initial=-np.inf),
                0.0, ModelRejection)
    if not gate.passed:
        gate.message = (f"reduced eigenvalue d={complex(d[off > 0][0]):.6g} "
                        f"is not real and >= 0 within {band:.3e}")
    return PencilData(gamma, basis @ coords, reduced, dec.index_k, basis,
                      coords, core, band, active, gate)


def _roots_coincide(z) -> np.ndarray:
    """Where the two roots of x^2 - (2 + z) x + 1 = 0 coincide: their
    squared half-difference z (1 + z/4) vanishes relative to (1 + |z|)^2."""
    z = np.asarray(z)
    return np.abs(z * (1.0 + z / 4.0)) <= _EZ_TOL * (1.0 + np.abs(z)) ** 2


def build_propagators(pd: PencilData, rho) -> PropagatorPair:
    """The propagator stack Z0, Z1 of the modes with step ratios rho.

    rho is taken as a vector, a scalar as one mode, and row idx is mode
    idx + 1.  With C = I + rho*core/2 and S the principal square root of
    C^2 - I, C + S and C - S are the roots p_plus, p_minus; S is zero on
    the diagonal where they coincide.  Every mode and branch comes from
    the pencil's one triangular core, and the root table is formed here,
    once.  When the roots collide at some active eigenvalue the
    difference Z1 - Z0 degenerates there, and the mode solve decides
    whether that leaves the amplitudes unsolvable (RhoDegenerate).
    RhoDegenerate is raised here on a Jordan block at coinciding roots,
    where no square root exists.
    """
    rhos = np.asarray(rho, dtype=complex).reshape(-1)
    d = np.diagonal(pd.core)
    p, diag = d.size, np.arange(d.size)
    z = rhos[:, None] * d  # (modes, p)
    C = np.eye(p) + rhos[:, None, None] * pd.core / 2.0
    c = C[:, diag, diag]  # 1 + z/2
    coincide = _roots_coincide(z)
    W = C @ C
    W[:, diag, diag] = np.where(coincide, 0.0, c * c - 1.0)
    try:
        S = matrix_function(W)
    except NoSquareRoot as exc:
        idx = exc.index[0]
        raise RhoDegenerate(
            f"mode {idx + 1}: propagator roots coincide on a Jordan block "
            f"at reduced eigenvalue {d[exc.row]} for "
            f"rho={complex(rhos[idx])}; no square root of C^2 - I exists"
        ) from exc
    s = S[:, diag, diag]
    modulus = np.maximum(np.abs(c + s), np.abs(c - s))
    beyond = np.where(coincide, -np.inf, -4.0 - z.real)  # (modes, p)
    # fmax skips a NaN entry: a gate fails only at an entry it can name
    gate = Gate("step_ratio_stable", "unstable-step-ratio", "",
                np.fmax.reduce(beyond, axis=None, initial=-np.inf), 0.0,
                UnstableStepRatio)
    if not gate.passed:
        idx, row = np.argwhere(beyond > 0.0)[0]
        gate.message = (
            f"mode {idx + 1}: z = rho*d = {complex(z[idx, row]):.6g} lies "
            f"beyond -4 at reduced eigenvalue d={complex(d[row]):.6g}; "
            f"propagator root |p| = {modulus[idx, row]:.6e} > 1")
    return PropagatorPair(rhos, pd.basis @ (C + S) @ pd.coords,
                          pd.basis @ (C - S) @ pd.coords, C, S, z, coincide,
                          modulus, gate)
