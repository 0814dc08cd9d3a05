"""Regularizing shift, commuting decomposition, and time-step propagators."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from singwave.errors import (
    NoRegularizingGamma,
    RhoDegenerate,
    UnstableStepRatio,
    admit,
)
from singwave.fixtures import demo_matrices
from singwave.matrix_core import one_norm
from singwave.pencil import (
    build_pencil,
    build_propagators,
    find_gamma,
)

from random_matrices import make_rng
from shifted_pair import active_spectrum, shifted_pair


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


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_find_gamma_scale_invariant(c):
    # the shift keeps its ladder position when E or the pair is rescaled;
    # the demo pair's norms scale exactly
    E, A = demo_EA()
    assert find_gamma(c * E, c * A) == find_gamma(E, A) == 1.0
    assert c * find_gamma(c * E, A) == find_gamma(E, A)
    # a singular A needs a nonzero shift; a general pair's norm ratio
    # scales up to a few units in the last place
    rng = make_rng(5)
    E, A = rng.standard_normal((2, 3, 3))
    E[2], A[:, 0] = 0.0, 0.0
    gamma = find_gamma(E, A)
    assert gamma != 0.0
    assert find_gamma(c * E, c * A) == pytest.approx(gamma, rel=1e-14)
    assert c * find_gamma(c * E, A) == pytest.approx(gamma, rel=1e-14)


def test_find_gamma_no_candidate():
    with pytest.raises(NoRegularizingGamma):
        find_gamma(np.zeros((2, 2)), np.zeros((2, 2)))


# ------------------------------------------------------------- build_pencil

def test_build_pencil_golden_matrices():
    E, A = demo_EA()
    pd = build_pencil(E, A)
    assert pd.gamma == 1.0
    Ehat, Ahat, EhatD = shifted_pair(E, A, pd.gamma)
    assert_allclose(Ehat, GOLDEN_EHAT, atol=1e-12)
    assert_allclose(Ahat, GOLDEN_AHAT, atol=1e-12)
    assert_allclose(EhatD, GOLDEN_EHATD, atol=1e-12)
    assert_allclose(pd.projector, GOLDEN_PROJECTOR, atol=1e-12)
    assert_allclose(pd.reduced, GOLDEN_REDUCED, atol=1e-12)
    active, zeros = active_spectrum(pd)
    assert zeros == 2
    assert_allclose(np.abs(active), [1.0], atol=1e-12)
    assert pd.active.any()


def test_build_pencil_invertible_mass():
    E = np.eye(3)
    A = np.diag([1.0, 2.0, 3.0])
    pd = build_pencil(E, A)
    assert_allclose(pd.reduced, A, atol=1e-12)
    Ehat, _, EhatD = shifted_pair(E, A, pd.gamma)
    assert_allclose(EhatD @ Ehat, np.eye(3), atol=1e-12)
    assert_allclose(pd.projector, np.eye(3), atol=1e-12)
    assert pd.index_k <= 1


def test_build_pencil_zero_mass():
    pd = build_pencil(np.zeros((2, 2)), np.eye(2))
    Ehat, _, _ = shifted_pair(np.zeros((2, 2)), np.eye(2), pd.gamma)
    assert_allclose(Ehat, 0.0, atol=1e-14)
    assert_allclose(pd.projector, 0.0, atol=1e-14)
    assert not pd.active.any()



def _orthogonal(rng, m):
    Q, R = np.linalg.qr(rng.standard_normal((m, m)))
    return Q * np.sign(np.diag(R))


def _assert_split_matches_shifted_pair(pd, E, A):
    # the projector and reduced operator built from the core-nilpotent
    # split are Ehat EhatD and EhatD Ahat
    Ehat, Ahat, EhatD = shifted_pair(E, A, pd.gamma)
    assert_allclose(pd.projector, Ehat @ EhatD, atol=1e-12)
    assert_allclose(pd.reduced, EhatD @ Ahat, atol=1e-12)


def test_coupled_pencil_reports_index_1():
    # four demo systems under a random orthogonal change of variables:
    # rank Ehat^j = 12, 8, 8, 8 for j = 0..3, so the index is 1
    mats = demo_matrices()
    E, A = (np.kron(np.eye(4), mats[key]) for key in ("E", "A"))
    Q = _orthogonal(make_rng(7), 12)
    pd = build_pencil(Q @ E @ Q.T, Q @ A @ Q.T)
    assert pd.index_k == 1
    active, zeros = active_spectrum(pd)
    assert zeros == 8
    assert_allclose(active, [1.0] * 4, atol=1e-12)
    _assert_split_matches_shifted_pair(pd, Q @ E @ Q.T, Q @ A @ Q.T)
    # the inactive core diagonal holds round-off d < 0, which a raw sign
    # test would reject; within the pencil's band the pair is hyperbolic
    d = np.diagonal(pd.core)
    assert (d.real[~pd.active] < 0.0).any()
    admit([], pd.gate)


def test_rotated_index_2_pencil():
    # E = J_2(0) + I_3 and A = diag(1, 1, 2, 1, 1): an infinite eigenvalue
    # of index 2 and the finite ones 1, 1, 2, whatever the orthogonal
    # similarity (Q E Q^T, Q A Q^T)
    E = np.zeros((5, 5))
    E[0, 1] = 1.0
    E[2:, 2:] = np.eye(3)
    A = np.diag([1.0, 1.0, 2.0, 1.0, 1.0])
    spectrum = [1.0, 1.0, 2.0]  # and two zeros
    pd = build_pencil(E, A)
    assert pd.index_k == 2
    active, zeros = active_spectrum(pd)
    assert zeros == 2
    assert_allclose(active, spectrum, atol=1e-12)
    rng = make_rng(11)
    for _ in range(200):
        Q = _orthogonal(rng, 5)
        pd = build_pencil(Q @ E @ Q.T, Q @ A @ Q.T)
        assert pd.index_k == 2
        active, zeros = active_spectrum(pd)
        assert zeros == 2
        assert_allclose(active, spectrum, atol=1e-12)
        _assert_split_matches_shifted_pair(pd, Q @ E @ Q.T, Q @ A @ Q.T)


def test_build_pencil_identity_defect():
    E, A = demo_EA()
    pd = build_pencil(E, A)
    Ehat, Ahat, _ = shifted_pair(E, A, pd.gamma)
    defect = one_norm(pd.gamma * Ehat + Ahat - np.eye(3))
    assert defect <= 1e-10


def test_build_pencil_projector_invariants():
    E, A = demo_EA()
    pd = build_pencil(E, A)
    P = pd.projector
    Ehat, _, EhatD = shifted_pair(E, A, pd.gamma)
    assert_allclose(P @ P, P, atol=1e-12)
    assert_allclose(P @ pd.reduced, pd.reduced @ P, atol=1e-12)
    assert_allclose(P @ Ehat, Ehat, atol=1e-12)
    assert_allclose(Ehat @ EhatD, EhatD @ Ehat, atol=1e-12)


# ----------------------------------------------------- step-size admissibility

def coinciding_d(pd, rho):
    """Active reduced eigenvalues d where the root table marks the two
    propagator roots of rho*d as coinciding."""
    pair = build_propagators(pd, rho)
    return np.diagonal(pd.core)[pd.active & pair.coincide[0]]


def test_rho_violations_zero_rho():
    pd = build_pencil(*demo_EA())
    assert_allclose(coinciding_d(pd, 0.0), [1.0], atol=1e-12)


def test_rho_violations_admissible():
    pd = build_pencil(*demo_EA())
    assert coinciding_d(pd, -0.1).size == 0


def test_rho_violations_boundary_of_disc():
    # for a unit direction d=1, rho*d*(1 + rho*d/4) = 0 at rho = -4
    pd = build_pencil(np.eye(1), np.eye(1))
    v = coinciding_d(pd, -4.0)
    assert len(v) == 1
    assert_allclose(v[0], 1.0, atol=1e-12)


def test_root_table_matches_the_triangular_diagonals():
    # z, coincide and modulus are one row per rho over the core diagonal
    pd = build_pencil(*demo_EA())
    rhos = np.array([-0.05, -4.0, -5.0])
    pair = build_propagators(pd, rhos)
    d = np.diagonal(pd.core)
    assert pair.z.shape == pair.coincide.shape == pair.modulus.shape \
        == (3, len(d))
    assert_allclose(pair.z, rhos[:, None] * d, rtol=0, atol=0)
    c, s = (np.diagonal(X, axis1=-2, axis2=-1) for X in (pair.C, pair.S))
    assert_allclose(pair.modulus, np.maximum(abs(c + s), abs(c - s)),
                    rtol=0, atol=0)
    one = np.flatnonzero(pd.active)
    assert pair.coincide[:, one].ravel().tolist() == [False, True, False]
    # z = -5 is beyond -4: one root outside the unit circle
    assert_allclose(pair.modulus[:, one].ravel()[[0, 2]],
                    [1.0, (3.0 + np.sqrt(5.0)) / 2.0], rtol=1e-14)


def test_unstable_roots_of_a_scalar_rho_rejected():
    # a scalar rho gives a one-mode stack, whose row is mode 1
    pd = build_pencil(*demo_EA())
    admit([], build_propagators(pd, -4.0).gate)
    pair = build_propagators(pd, -5.0)
    assert pair.rho.shape == (1,)
    assert pair.Z0.shape == pair.Z1.shape == (1, 3, 3)
    assert pair.z.shape == pair.modulus.shape == (1, pd.core.shape[0])
    with pytest.raises(UnstableStepRatio, match="mode 1: z = rho.d = -5"):
        admit([], pair.gate)
    assert pair.gate.condition == "unstable-step-ratio"


# --------------------------------------------------------------- propagators

def test_propagators_degenerate_rho_rejected():
    # at rho = 0 both roots are 1 on the active d = 1; the mode solve
    # names it as RhoDegenerate from the root table's coincide mask
    pd = build_pencil(*demo_EA())
    active = np.diagonal(pd.core)[pd.active]
    assert_allclose(coinciding_d(pd, 0.0), active, atol=1e-12)


def test_propagators_degenerate_rho_collapse():
    pd = build_pencil(*demo_EA())
    pair = build_propagators(pd, 0.0)
    assert_allclose(pair.Z0[0], pd.projector, atol=1e-12)
    assert_allclose(pair.Z1[0], pd.projector, atol=1e-12)


def test_propagators_scalar_unit_modulus():
    pd = build_pencil(np.eye(1), np.eye(1))
    pair = build_propagators(pd, -0.1)
    z0, z1 = pair.Z0[0, 0, 0], pair.Z1[0, 0, 0]
    assert_allclose(abs(z0), 1.0, atol=1e-12)
    assert_allclose(abs(z1), 1.0, atol=1e-12)
    assert_allclose(z0 + z1, 2.0 - 0.1, atol=1e-12)
    assert_allclose(z0 * z1, 1.0, atol=1e-12)


def test_propagators_unit_modulus_all_demo_modes():
    pd = build_pencil(*demo_EA())
    rhos = [-0.05, -0.5, -1.0, -3.5]
    stack = build_propagators(pd, rhos)
    assert stack.Z0.shape == stack.Z1.shape == (4, 3, 3)
    for idx, rho in enumerate(rhos):
        pair = build_propagators(pd, rho)
        for Z in (pair.Z0[0], pair.Z1[0]):
            eigs = np.linalg.eigvals(Z)
            mods = np.abs(eigs[np.abs(eigs) > 1e-8])
            assert_allclose(mods, 1.0, atol=1e-10)
        assert stack.rho[idx] == rho
        assert_allclose(stack.Z0[idx], pair.Z0[0], rtol=0, atol=1e-14)
        assert_allclose(stack.Z1[idx], pair.Z1[0], rtol=0, atol=1e-14)


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
        lhs = pair.Z0[0] + pair.Z1[0]
        rhs = (2 * np.eye(n) + rho * pd.reduced) @ pd.projector
        assert one_norm(lhs - rhs) <= 1e-9 * max(1.0, one_norm(rhs))


def test_quadratic_root_scalars():
    # for a 1 x 1 pencil with d = 1 the propagators are the roots of
    # x^2 - (2 + rho) x + 1 = 0
    pd = build_pencil(np.eye(1), np.eye(1))
    pair = build_propagators(pd, -0.1)
    plus, minus = pair.Z0[0, 0, 0], pair.Z1[0, 0, 0]
    expected_imag = np.sqrt(1 - 0.9025)
    assert_allclose(plus, 0.95 + 1j * expected_imag, atol=1e-13)
    assert_allclose(minus, 0.95 - 1j * expected_imag, atol=1e-13)
    assert_allclose(plus * minus, 1.0, atol=1e-13)
    assert_allclose(plus + minus, 1.9, atol=1e-13)


def test_quadratic_roots_on_unit_circle():
    # real root base in [-1, 1]: both roots must sit exactly on the circle
    pd = build_pencil(np.eye(1), np.eye(1))
    pair = build_propagators(pd, [-0.5, -1.0, -3.9])
    roots = np.stack([pair.Z0, pair.Z1])
    assert roots.shape == (2, 3, 1, 1)
    assert np.abs(np.abs(roots) - 1.0).max() <= 1e-12


def test_propagators_jordan_core():
    # the reduced operator is a Jordan block at d = 1, with no
    # eigenvector basis; the square root is taken in triangular form
    E = np.eye(2)
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    pd = build_pencil(E, A)
    rho = -0.25
    pair = build_propagators(pd, rho)
    rhs = (2 * np.eye(2) + rho * pd.reduced) @ pd.projector
    assert_allclose(pair.Z0[0] + pair.Z1[0], rhs, atol=1e-12)
    assert_allclose(pair.Z0[0] @ pair.Z1[0], pd.projector, atol=1e-12)
    rng = make_rng(5)
    l1, l2 = rng.standard_normal(2), rng.standard_normal(2)
    G = [_difference_solution(pair, pd.projector, l1, l2, j)
         for j in range(7)]
    for j in range(1, 6):
        res = E @ G[j + 1] - (2 * E + rho * A) @ G[j] + E @ G[j - 1]
        assert one_norm(res) <= 1e-12 * max(1.0, one_norm(G[j]))


def test_propagators_jordan_at_coinciding_roots_rejected():
    # E = I, A = [[0, 1], [0, 0]]: both roots equal 1 on a Jordan block,
    # where C^2 - I has no square root
    pd = build_pencil(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(RhoDegenerate) as info:
        build_propagators(pd, [0.0, -0.3])
    assert "mode 2" in str(info.value)
    pair = build_propagators(pd, 0.0)
    assert_allclose(pair.Z0[0], pd.projector, atol=1e-12)


def test_propagators_inverse_pair():
    pd = build_pencil(*demo_EA())
    pair = build_propagators(pd, -0.4)
    # on the core subspace the two step maps are mutual inverses
    prod = pair.Z0[0] @ pair.Z1[0]
    assert_allclose(prod, pd.projector, atol=1e-10)


# ------------------------------------------------- homogeneous mode solutions

def _difference_solution(pair, projector, l1, l2, j):
    """G(j) = Z0^j P l1 + Z1^j P l2 of a one-mode pair."""
    return (np.linalg.matrix_power(pair.Z0[0], j) @ projector @ l1
            + np.linalg.matrix_power(pair.Z1[0], j) @ projector @ l2)


def test_difference_solution_annihilates_nilpotent_directions():
    pd = build_pencil(*demo_EA())
    pair = build_propagators(pd, -0.3)
    # (1, 0, -1) spans the non-core part: both propagators map it to zero
    l1 = np.array([1.0, 0.0, -1.0])
    assert_allclose(pd.projector @ l1, 0.0, atol=1e-12)
    assert_allclose(pair.Z0[0] @ l1, 0.0, atol=1e-12)
    assert_allclose(pair.Z1[0] @ l1, 0.0, atol=1e-12)


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
