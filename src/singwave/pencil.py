"""Regularization of a singular matrix pair and time-step propagators.

Given square matrices E and A with E possibly singular, a shift gamma is
chosen so that gamma*E + A is invertible.  The shifted pair
Ehat = (gamma*E + A)^-1 E, Ahat = (gamma*E + A)^-1 A commutes, and the
Drazin inverse of Ehat yields a projector onto the subspace where the
two-level recurrence

    Ehat G(j+1) - (2 Ehat + rho Ahat) G(j) + Ehat G(j-1) = 0

has propagating solutions.  The propagators Z0, Z1 are the two roots of
the associated quadratic, evaluated as analytic functions of the reduced
operator EhatD @ Ahat and cut down by the projector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .errors import NoRegularizingGamma, RhoDegenerate, SingularShift
from .matrix_core import (
    as_matrix,
    drazin_inverse,
    matrix_function,
    one_norm,
    snap_real,
)

_COND_LIMIT = 1e8
_EZ_TOL = 1e-12


def _cond1(M: np.ndarray) -> float:
    try:
        c = np.abs(np.linalg.cond(M, 1))
    except np.linalg.LinAlgError:
        return np.inf
    if not np.isfinite(c):
        return np.inf
    return float(c)


def _candidate_ladder(limit: int = 8) -> List[complex]:
    ladder: List[complex] = [0.0]
    for n in range(1, limit + 1):
        ladder.extend([complex(n), complex(-n), n * 1j, -n * 1j])
    return ladder


def find_gamma(E, A, cond_limit: float = _COND_LIMIT) -> complex:
    """First shift from a fixed candidate ladder making gamma*E + A
    well conditioned.

    Candidates are 0, +-1, +-i, +-2, ... scaled to the relative size of A
    against E; deterministic for fixed inputs.  Raises NoRegularizingGamma
    when no candidate brings the 1-norm condition number under the limit.
    """
    Em = as_matrix(E, "E")
    Am = as_matrix(A, "A")
    if Em.shape != Am.shape or Em.shape[0] != Em.shape[1]:
        raise ValueError(
            f"E and A must be square with equal shapes, got {Em.shape} and {Am.shape}")
    scale = one_norm(Am) / max(one_norm(Em), 1.0)
    if scale == 0.0:
        scale = 1.0
    for cand in _candidate_ladder():
        gamma = cand * scale
        if _cond1(gamma * Em + Am) <= cond_limit:
            return complex(gamma)
    raise NoRegularizingGamma(
        "no shift in the candidate ladder makes the pair invertible")


@dataclass
class PencilData:
    """Shifted pair with its Drazin structure.

    core_active is False when every eigenvalue of the reduced operator is
    zero, in which case the propagating subspace is trivial.
    """

    gamma: complex
    Ehat: np.ndarray
    Ahat: np.ndarray
    EhatD: np.ndarray
    projector: np.ndarray
    reduced: np.ndarray
    spectrum_reduced: np.ndarray
    index_k: int
    core_active: bool


@dataclass
class PropagatorPair:
    """Forward/backward time-step operators.

    For a single mode, rho is a scalar and Z0, Z1 are (m, m).  For a stack
    of modes, rho is a vector and Z0, Z1 are (modes, m, m); entry idx
    belongs to mode number mode_index + idx.
    """

    mode_index: int
    rho: Union[complex, np.ndarray]
    Z0: np.ndarray
    Z1: np.ndarray

    def mode(self, idx: int) -> "PropagatorPair":
        """The single-mode pair at stack position idx."""
        return PropagatorPair(self.mode_index + idx, complex(self.rho[idx]),
                              self.Z0[idx], self.Z1[idx])


def build_pencil(E, A, gamma: Optional[complex] = None,
                 tol: float = 1e-10) -> PencilData:
    """Form the shifted pair and its Drazin projector and reduced operator.

    With S = gamma*E + A invertible, Ehat = S^-1 E and Ahat = S^-1 A
    satisfy gamma*Ehat + Ahat = I, so the two commute and share invariant
    subspaces with the projector Ehat @ EhatD.
    """
    Em = as_matrix(E, "E")
    Am = as_matrix(A, "A")
    if gamma is None:
        gamma = find_gamma(Em, Am)
    gamma = complex(gamma)
    S = gamma * Em + Am
    if _cond1(S) > _COND_LIMIT:
        raise SingularShift(
            f"shifted matrix with gamma={gamma} is numerically singular")
    Ehat = np.linalg.solve(S, Em)
    Ahat = np.linalg.solve(S, Am)
    m = Em.shape[0]
    defect = one_norm(gamma * Ehat + Ahat - np.eye(m))
    if defect > 1e-8 * (1.0 + abs(gamma)):
        raise SingularShift(
            f"shifted solve inaccurate (identity defect {defect:.3e})")
    EhatD, index_k = drazin_inverse(Ehat, tol)
    projector = Ehat @ EhatD
    reduced = EhatD @ Ahat
    spectrum = snap_real(np.linalg.eigvals(reduced))
    small = np.abs(spectrum) <= tol * (1.0 + one_norm(reduced))
    spectrum = np.where(small, 0.0, spectrum)
    spectrum = spectrum[np.argsort(np.abs(spectrum), kind="stable")]
    core_active = bool(np.any(spectrum != 0.0))
    return PencilData(gamma, Ehat, Ahat, EhatD, projector, reduced,
                      spectrum, index_k, core_active)


def rho_condition_violations(pd: PencilData, rho: complex,
                             tol: float = _EZ_TOL) -> List[complex]:
    """Nonzero reduced eigenvalues d where rho*d*(1 + rho*d/4) vanishes.

    For each such d the two propagator roots coincide and their difference
    is not invertible on the propagating subspace.
    """
    rho = complex(rho)
    dtol = 1e-12 * (1.0 + one_norm(pd.reduced))
    bad: List[complex] = []
    for d in pd.spectrum_reduced:
        if abs(d) <= dtol:
            continue
        z = rho * d
        if abs(z * (1.0 + z / 4.0)) <= tol * (1.0 + abs(z)) ** 2:
            bad.append(complex(d))
    return bad


def quadratic_roots(z) -> np.ndarray:
    """Both roots of x^2 - (2 + z) x + 1 = 0, stacked as [p_plus, p_minus].

    With c = 1 + z/2 they are c +- sqrt(c^2 - 1), principal square root;
    for real z in [-4, 0] both lie on the unit circle.
    """
    c = 1.0 + np.asarray(z, dtype=complex) / 2.0
    s = np.sqrt(snap_real(c * c - 1.0))
    return np.stack([c + s, c - s])


def build_propagators(pd: PencilData, rho, mode_index: int = 0,
                      require_invertible_difference: bool = True
                      ) -> PropagatorPair:
    """The two propagator matrices Z0, Z1 for one rho or a vector of them.

    Z0 and Z1 apply the quadratic roots p_plus, p_minus of rho*d to the
    reduced operator and restrict to the projector's range.  Every mode
    and both branches come from one eigendecomposition of the reduced
    operator; a vector rho gives (modes, m, m) stacks.  When the roots
    collide at some active eigenvalue the difference Z1 - Z0 degenerates
    there; by default this raises RhoDegenerate.
    """
    rhos = np.asarray(rho, dtype=complex)
    if require_invertible_difference:
        for r in rhos.reshape(-1):
            bad = rho_condition_violations(pd, r)
            if bad:
                raise RhoDegenerate(
                    f"propagator roots coincide at reduced eigenvalue(s) "
                    f"{bad} for rho={complex(r)}")
    roots = matrix_function(
        pd.reduced, lambda w: quadratic_roots(rhos[..., None] * w))
    Z0, Z1 = roots @ pd.projector
    label = complex(rhos) if rhos.ndim == 0 else rhos
    return PropagatorPair(mode_index, label, Z0, Z1)
