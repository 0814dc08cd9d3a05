"""Discrete eigenproblem assembly, solution, expansion, and endpoint extension."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from singwave.errors import DegenerateBoundary
from singwave.sturm_liouville import (
    EigenPair,
    SLProblem,
    _stabilize_clusters,
    assemble_pencil,
    boundary_scalars,
    expand,
    extend_eigenfunction,
    orthogonality_defect,
    solve_psd,
    synthesize,
)

from conftest import make_rng, random_complex


def closed_form_eigenvalues(N: int) -> np.ndarray:
    l = np.arange(1, N)
    return 4.0 * np.sin(l * np.pi / (2 * N)) ** 2


# ----------------------------------------------------------------- assembly

def test_assemble_canonical_n4():
    S, R = assemble_pencil(SLProblem(4))
    expected = np.array([[2.0, -1.0, 0.0],
                         [-1.0, 2.0, -1.0],
                         [0.0, -1.0, 2.0]])
    assert_allclose(S, expected, atol=1e-14)
    assert_allclose(R, np.eye(3), atol=1e-14)


def test_assemble_n2():
    S, R = assemble_pencil(SLProblem(2))
    assert_allclose(S, [[2.0]], atol=1e-14)
    assert_allclose(R, [[1.0]], atol=1e-14)


def test_assemble_corner_coupling():
    S, _ = assemble_pencil(SLProblem(3, alpha=1.0, beta=0.0))
    assert_allclose(S, [[0.5, -1.0], [-1.0, 2.0]], atol=1e-14)


def test_assemble_corner_formulas():
    N, alpha, beta = 8, 2.0, 1.0
    S, _ = assemble_pencil(SLProblem(N, alpha, beta))
    aN, bN = alpha * N, beta * N
    assert_allclose(S[0, 0], (2 - aN) / (1 - aN), atol=1e-14)
    assert_allclose(S[-1, -1], (2 + bN) / (1 + bN), atol=1e-14)


def test_degenerate_boundary_rejected():
    with pytest.raises(DegenerateBoundary):
        assemble_pencil(SLProblem(4, alpha=0.25))
    with pytest.raises(DegenerateBoundary):
        assemble_pencil(SLProblem(4, beta=-0.25))
    with pytest.raises(DegenerateBoundary):
        boundary_scalars(SLProblem(5, alpha=0.2))


def test_invalid_problem_parameters():
    with pytest.raises(ValueError):
        SLProblem(1)
    with pytest.raises(ValueError):
        assemble_pencil(SLProblem(4, r=lambda i: -1.0))


# ----------------------------------------------------------------- spectrum

def test_spectrum_single_interior_node():
    pairs = solve_psd(SLProblem(2))
    assert len(pairs) == 1
    assert_allclose(pairs[0].lam, 2.0, atol=1e-14)


def test_spectrum_canonical_closed_form():
    for N in (4, 8, 16):
        pairs = solve_psd(SLProblem(N))
        lams = np.array([p.lam for p in pairs])
        assert_allclose(lams, closed_form_eigenvalues(N), atol=1e-10)
    pairs4 = solve_psd(SLProblem(4))
    assert_allclose([p.lam for p in pairs4],
                    [2 - np.sqrt(2), 2.0, 2 + np.sqrt(2)], atol=1e-12)


def test_spectrum_sorted_and_complete():
    pairs = solve_psd(SLProblem(9, alpha=2.0, beta=1.0))
    assert len(pairs) == 8
    lams = [p.lam for p in pairs]
    assert lams == sorted(lams)


def test_coupled_scalars_produce_exact_zero_mode():
    # alpha = 1 + beta collapses the two endpoint relations onto the same
    # linear constraint, so a nonpropagating zero eigenvalue appears; it is
    # snapped to exactly 0.0 rather than left as eigensolver noise
    for N in (4, 8, 16):
        pairs = solve_psd(SLProblem(N, alpha=2.0, beta=1.0))
        assert pairs[0].lam == 0.0
        assert all(p.lam > 1e-3 for p in pairs[1:])


def test_eigen_residuals_weighted_problem():
    prob = SLProblem(10, alpha=2.0, beta=1.0,
                     r=lambda i: 1.0 + i / 10.0)
    S, R = assemble_pencil(prob)
    pairs = solve_psd(prob)
    rv = np.diag(R)
    for pair in pairs:
        res = np.abs(S @ pair.v - pair.lam * rv * pair.v).sum()
        assert res <= 1e-10 * max(1.0, np.abs(S).sum(axis=0).max())
    assert orthogonality_defect(pairs, prob) <= 1e-10


def test_sign_convention_deterministic():
    pairs = solve_psd(SLProblem(8))
    for pair in pairs:
        peak = np.argmax(np.abs(pair.v))
        assert pair.v[peak] > 0


# ------------------------------------------------------------ orthogonality

def test_orthogonality_canonical():
    prob = SLProblem(4)
    assert orthogonality_defect(solve_psd(prob), prob) <= 1e-12


def test_orthogonality_single_pair_empty_max():
    prob = SLProblem(2)
    assert orthogonality_defect(solve_psd(prob), prob) == 0.0


def test_orthogonality_detector_fires_on_duplicates():
    prob = SLProblem(4)
    v = solve_psd(prob)[0].v
    fake = [EigenPair(1.0, v), EigenPair(1.0, v)]
    assert_allclose(orthogonality_defect(fake, prob), 1.0, atol=1e-12)


# -------------------------------------------------------------- expansion

def test_expand_reproduces_single_modes():
    prob = SLProblem(6)
    pairs = solve_psd(prob)
    c = expand(pairs[0].v, pairs, prob)
    expected = np.zeros(5)
    expected[0] = 1.0
    assert_allclose(c, expected, atol=1e-12)
    c2 = expand(2 * pairs[0].v + 3 * pairs[1].v, pairs, prob)
    expected2 = np.zeros(5)
    expected2[:2] = [2.0, 3.0]
    assert_allclose(c2, expected2, atol=1e-12)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_expand_synthesize_roundtrip(seed):
    rng = make_rng(seed)
    prob = SLProblem(10, alpha=2.0, beta=1.0)
    pairs = solve_psd(prob)
    u = random_complex(rng, 9)
    back = synthesize(expand(u, pairs, prob), pairs)
    assert_allclose(back, u, atol=1e-9)


def test_expand_vector_valued_componentwise():
    prob = SLProblem(5)
    pairs = solve_psd(prob)
    U = np.stack([pairs[0].v, 2 * pairs[1].v, np.zeros(4)], axis=1)
    C = expand(U, pairs, prob)
    assert C.shape == (4, 3)
    assert_allclose(C[0], [1.0, 0.0, 0.0], atol=1e-12)
    assert_allclose(C[1], [0.0, 2.0, 0.0], atol=1e-12)


def test_expand_shape_mismatch():
    prob = SLProblem(5)
    pairs = solve_psd(prob)
    with pytest.raises(ValueError):
        expand(np.zeros(7), pairs, prob)


# ------------------------------------------------------------- extension

@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (2.0, 1.0)])
def test_extended_mode_satisfies_recurrence(alpha, beta):
    for N in (4, 8, 16):
        prob = SLProblem(N, alpha, beta)
        for pair in solve_psd(prob):
            full = extend_eigenfunction(pair, prob)
            res = np.abs(full[2:] - (2 - pair.lam) * full[1:-1] + full[:-2])
            assert res.max() <= 1e-12 * max(1.0, np.abs(full).max())


def test_extension_endpoint_relations():
    N, alpha, beta = 8, 2.0, 1.0
    prob = SLProblem(N, alpha, beta)
    pair = solve_psd(prob)[2]
    full = extend_eigenfunction(pair, prob)
    assert_allclose(full[0] + alpha * N * (full[1] - full[0]), 0.0, atol=1e-12)
    assert_allclose(full[N] + beta * N * (full[N] - full[N - 1]), 0.0,
                    atol=1e-12)


def test_cluster_stabilizer_orthonormalizes():
    lams = np.array([1.0, 1.0])
    vecs = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    out = _stabilize_clusters(lams, vecs, 1.0)
    assert_allclose(out.T @ out, np.eye(2), atol=1e-12)
