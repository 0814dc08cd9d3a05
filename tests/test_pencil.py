"""Regularizing shift, commuting decomposition, and time-step propagators."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from singwave.errors import (
    DefectiveMatrix,
    NoRegularizingGamma,
    RhoDegenerate,
    SingularShift,
)
from singwave.fixtures import demo_matrices
from singwave.matrix_core import one_norm
from singwave.pencil import (
    build_pencil,
    build_propagators,
    find_gamma,
    quadratic_roots,
    rho_condition_violations,
)

from conftest import make_rng


GOLDEN_EHAT = np.array([[1.0, 0.0, 1.0],
                        [0.0, 0.5, 0.0],
                        [0.0, 0.0, 0.0]])
GOLDEN_AHAT = np.array([[0.0, 0.0, -1.0],
                        [0.0, 0.5, 0.0],
                        [0.0, 0.0, 1.0]])
GOLDEN_EHATD = np.array([[1.0, 0.0, 1.0],
                         [0.0, 2.0, 0.0],
                         [0.0, 0.0, 0.0]])
GOLDEN_PROJECTOR = np.array([[1.0, 0.0, 1.0],
                             [0.0, 1.0, 0.0],
                             [0.0, 0.0, 0.0]])
GOLDEN_REDUCED = np.diag([0.0, 1.0, 0.0])


def demo_EA():
    mats = demo_matrices()
    return mats["E"], mats["A"]


# ------------------------------------------------------------------- gamma

def test_find_gamma_trivial():
    # gamma = 0 leaves the zero matrix, so the first working shift is 1
    assert find_gamma(np.eye(3), np.zeros((3, 3))) == 1.0


def test_find_gamma_demo_pair():
    E, A = demo_EA()
    gamma = find_gamma(E, A)
    assert gamma == 1.0
    shifted = gamma * E + A
    assert abs(np.linalg.det(shifted)) > 1e-12


def test_find_gamma_no_candidate():
    with pytest.raises(NoRegularizingGamma):
        find_gamma(np.zeros((2, 2)), np.zeros((2, 2)))


# ------------------------------------------------------------- build_pencil

def test_build_pencil_golden_matrices():
    E, A = demo_EA()
    pd = build_pencil(E, A)
    assert pd.gamma == 1.0
    assert_allclose(pd.Ehat, GOLDEN_EHAT, atol=1e-12)
    assert_allclose(pd.Ahat, GOLDEN_AHAT, atol=1e-12)
    assert_allclose(pd.EhatD, GOLDEN_EHATD, atol=1e-12)
    assert_allclose(pd.projector, GOLDEN_PROJECTOR, atol=1e-12)
    assert_allclose(pd.reduced, GOLDEN_REDUCED, atol=1e-12)
    assert_allclose(sorted(np.abs(pd.spectrum_reduced)), [0.0, 0.0, 1.0],
                    atol=1e-12)
    assert pd.core_active


def test_build_pencil_invertible_mass():
    E = np.eye(3)
    A = np.diag([1.0, 2.0, 3.0])
    pd = build_pencil(E, A, gamma=0.0)
    assert_allclose(pd.reduced, A, atol=1e-12)
    assert_allclose(pd.EhatD @ pd.Ehat, np.eye(3), atol=1e-12)
    assert_allclose(pd.projector, np.eye(3), atol=1e-12)
    assert pd.index_k <= 1


def test_build_pencil_zero_mass():
    pd = build_pencil(np.zeros((2, 2)), np.eye(2), gamma=1.0)
    assert_allclose(pd.Ehat, 0.0, atol=1e-14)
    assert_allclose(pd.projector, 0.0, atol=1e-14)
    assert not pd.core_active


def test_build_pencil_identity_defect():
    E, A = demo_EA()
    pd = build_pencil(E, A)
    defect = one_norm(pd.gamma * pd.Ehat + pd.Ahat - np.eye(3))
    assert defect <= 1e-10


def test_build_pencil_projector_invariants():
    E, A = demo_EA()
    pd = build_pencil(E, A)
    P = pd.projector
    assert_allclose(P @ P, P, atol=1e-12)
    assert_allclose(P @ pd.reduced, pd.reduced @ P, atol=1e-12)
    assert_allclose(P @ pd.Ehat, pd.Ehat, atol=1e-12)
    assert_allclose(pd.Ehat @ pd.EhatD, pd.EhatD @ pd.Ehat, atol=1e-12)


def test_build_pencil_rejects_singular_shift():
    E, A = demo_EA()
    with pytest.raises(SingularShift):
        build_pencil(E, A, gamma=0.0)


# ----------------------------------------------------- step-size admissibility

def test_rho_violations_zero_rho():
    pd = build_pencil(*demo_EA())
    v = rho_condition_violations(pd, 0.0)
    assert_allclose(v, [1.0], atol=1e-12)


def test_rho_violations_admissible():
    pd = build_pencil(*demo_EA())
    assert rho_condition_violations(pd, -0.1) == []


def test_rho_violations_boundary_of_disc():
    # for a unit direction d=1, rho*d*(1 + rho*d/4) = 0 at rho = -4
    pd = build_pencil(np.eye(1), np.eye(1), gamma=0.0)
    v = rho_condition_violations(pd, -4.0)
    assert len(v) == 1
    assert_allclose(v[0], 1.0, atol=1e-12)


# --------------------------------------------------------------- propagators

def test_propagators_degenerate_rho_rejected():
    pd = build_pencil(*demo_EA())
    with pytest.raises(RhoDegenerate):
        build_propagators(pd, 0.0)


def test_propagators_degenerate_rho_collapse():
    pd = build_pencil(*demo_EA())
    pair = build_propagators(pd, 0.0, require_invertible_difference=False)
    assert_allclose(pair.Z0, pd.projector, atol=1e-12)
    assert_allclose(pair.Z1, pd.projector, atol=1e-12)


def test_propagators_scalar_unit_modulus():
    pd = build_pencil(np.eye(1), np.eye(1), gamma=0.0)
    pair = build_propagators(pd, -0.1)
    z0, z1 = pair.Z0[0, 0], pair.Z1[0, 0]
    assert_allclose(abs(z0), 1.0, atol=1e-12)
    assert_allclose(abs(z1), 1.0, atol=1e-12)
    assert_allclose(z0 + z1, 2.0 - 0.1, atol=1e-12)
    assert_allclose(z0 * z1, 1.0, atol=1e-12)


def test_propagators_unit_modulus_all_demo_modes():
    pd = build_pencil(*demo_EA())
    rhos = [-0.05, -0.5, -1.0, -3.5]
    stack = build_propagators(pd, rhos, mode_index=1)
    assert stack.Z0.shape == stack.Z1.shape == (4, 3, 3)
    for idx, rho in enumerate(rhos):
        pair = build_propagators(pd, rho)
        for Z in (pair.Z0, pair.Z1):
            eigs = np.linalg.eigvals(Z)
            mods = np.abs(eigs[np.abs(eigs) > 1e-8])
            assert_allclose(mods, 1.0, atol=1e-10)
        one = stack.mode(idx)
        assert one.mode_index == idx + 1
        assert one.rho == rho
        assert_allclose(one.Z0, pair.Z0, rtol=0, atol=1e-14)
        assert_allclose(one.Z1, pair.Z1, rtol=0, atol=1e-14)


def test_propagators_sum_identity_random():
    rng = make_rng(7)
    for _ in range(10):
        n = rng.integers(2, 5)
        V = rng.standard_normal((n, n))
        while abs(np.linalg.det(V)) < 1e-3:
            V = rng.standard_normal((n, n))
        D = np.diag(rng.uniform(0.5, 2.0, n))
        E = V @ D @ np.linalg.inv(V)
        A = V @ np.diag(rng.uniform(0.5, 2.0, n)) @ np.linalg.inv(V)
        pd = build_pencil(E, A)
        rho = -0.3
        pair = build_propagators(pd, rho)
        lhs = pair.Z0 + pair.Z1
        rhs = (2 * np.eye(n) + rho * pd.reduced) @ pd.projector
        assert one_norm(lhs - rhs) <= 1e-9 * max(1.0, one_norm(rhs))


def test_quadratic_root_scalars():
    plus, minus = quadratic_roots(-0.1)
    expected_imag = np.sqrt(1 - 0.9025)
    assert_allclose(plus, 0.95 + 1j * expected_imag, atol=1e-13)
    assert_allclose(minus, 0.95 - 1j * expected_imag, atol=1e-13)
    assert_allclose(plus * minus, 1.0, atol=1e-13)
    assert_allclose(plus + minus, 1.9, atol=1e-13)


def test_quadratic_roots_on_unit_circle():
    # real root base in [-1, 1]: both roots must sit exactly on the circle
    roots = quadratic_roots(np.array([-0.5, -1.0, -3.9]))
    assert roots.shape == (2, 3)
    assert np.abs(np.abs(roots) - 1.0).max() <= 1e-12


def test_propagators_defective_core_rejected():
    E = np.eye(2)
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    pd = build_pencil(E, A, gamma=0.0)
    with pytest.raises(DefectiveMatrix):
        build_propagators(pd, -0.25)


def test_propagators_inverse_pair():
    pd = build_pencil(*demo_EA())
    pair = build_propagators(pd, -0.4)
    # on the core subspace the two step maps are mutual inverses
    prod = pair.Z0 @ pair.Z1
    assert_allclose(prod, pd.projector, atol=1e-10)


# ------------------------------------------------- homogeneous mode solutions

def _difference_solution(pair, projector, l1, l2, j):
    """G(j) = Z0^j P l1 + Z1^j P l2."""
    return (np.linalg.matrix_power(pair.Z0, j) @ projector @ l1
            + np.linalg.matrix_power(pair.Z1, j) @ projector @ l2)


def test_difference_solution_annihilates_nilpotent_directions():
    pd = build_pencil(*demo_EA())
    pair = build_propagators(pd, -0.3)
    # (1, 0, -1) spans the non-core part: both propagators map it to zero
    l1 = np.array([1.0, 0.0, -1.0])
    assert_allclose(pd.projector @ l1, 0.0, atol=1e-12)
    assert_allclose(pair.Z0 @ l1, 0.0, atol=1e-12)
    assert_allclose(pair.Z1 @ l1, 0.0, atol=1e-12)


def test_difference_solution_satisfies_recurrence():
    E, A = demo_EA()
    pd = build_pencil(E, A)
    rho = -0.37
    pair = build_propagators(pd, rho)
    rng = make_rng(3)
    l1 = rng.standard_normal(3)
    l2 = rng.standard_normal(3)
    G = [_difference_solution(pair, pd.projector, l1, l2, j)
         for j in range(7)]
    for j in range(1, 6):
        res = E @ G[j + 1] - (2 * E + rho * A) @ G[j] + E @ G[j - 1]
        assert one_norm(res) <= 1e-8 * max(1.0, one_norm(G[j]))
