"""Acceptance gate: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per criterion; each test also prints a one-line summary with its runtime.
"""

import time

import numpy as np

from singwave.cli import main, write_problem
from singwave.fixtures import (
    demo_matrices,
    demo_problem,
    reject_full_rank,
    reject_kernel_violation,
    reject_projector_mismatch,
    reject_rho_degenerate,
    scalar_wave_problem,
)
from singwave.matrix_core import core_nilpotent, min_norm_solve, one_norm
from singwave.pencil import build_pencil, build_propagators
from singwave.solver import solve_problem
from singwave.sturm_liouville import SLProblem, expand, solve_psd
from singwave.verify import (
    brute_force_reference,
    reference_deviation,
    residual_report,
)

from power_norms import power_norms
from random_matrices import make_rng, random_rank_matrix
from shifted_pair import drazin_inverse, shifted_pair


def test_criterion_1_golden_pencil_matrices():
    """Worked three-component instance: all five derived matrices exact."""
    t0 = time.perf_counter()
    mats = demo_matrices()
    pd = build_pencil(mats["E"], mats["A"])
    assert pd.gamma == 1.0
    targets = {
        "Ehat": [[1.0, 0.0, 1.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]],
        "Ahat": [[0.0, 0.0, -1.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]],
        "EhatD": [[1.0, 0.0, 1.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]],
        "projector": [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
        "reduced": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
    }
    Ehat, Ahat, EhatD = shifted_pair(mats["E"], mats["A"], pd.gamma)
    got = {"Ehat": Ehat, "Ahat": Ahat, "EhatD": EhatD,
           "projector": pd.projector, "reduced": pd.reduced}
    worst = 0.0
    for name, want in targets.items():
        defect = float(np.abs(got[name] - np.array(want)).max())
        assert defect <= 1e-12, f"{name} off by {defect:.3e}"
        worst = max(worst, defect)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"CRITERION 1 PASS: golden matrices match to {worst:.2e} "
          f"({elapsed:.3f}s)")


def test_criterion_2_random_inverse_axioms():
    """100 random matrices: the Moore-Penrose product axiom of
    min_norm_solve and the Drazin axioms of the core-nilpotent split,
    all to 1e-9 relative."""
    t0 = time.perf_counter()
    rng = make_rng(987)
    done = attempts = 0
    while done < 100:
        attempts += 1
        assert attempts < 1000, "resampling guard exhausted"
        n = int(rng.integers(1, 9))
        rank = int(rng.integers(0, n + 1))
        A = random_rank_matrix(rng, n, rank)
        scale = max(1.0, one_norm(A))
        eigs = np.abs(np.linalg.eigvals(A))
        if np.any((eigs > 1e-12 * scale) & (eigs < 1e-5 * scale)):
            continue  # borderline spectrum: resample deterministically

        G = min_norm_solve(A, np.eye(n))
        assert one_norm(A @ G @ A - A) <= 1e-9 * (1.0 + scale)

        dec = core_nilpotent(A)
        D, index = drazin_inverse(dec), dec.index_k
        assert one_norm(A @ D - D @ A) <= 1e-9 * (1.0 + scale * one_norm(D))
        assert one_norm(D @ A @ D - D) <= 1e-9 * (1.0 + one_norm(D))
        Ak = np.linalg.matrix_power(A, index)
        assert one_norm(A @ Ak @ D - Ak) <= 1e-9 * (1.0 + one_norm(Ak)
                                                    * (1.0 + one_norm(A @ D)))
        # the right sides of a former consistency check, still drawn so
        # that the 100 matrices stay the same
        rng.standard_normal((2, n))
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"CRITERION 2 PASS: {done} random matrices "
          f"({attempts - done} resampled) in {elapsed:.2f}s")


def test_criterion_3_eigenbasis_quality():
    """Uncoupled spectra closed-form to 1e-9, orthonormality to 1e-10,
    expansion round-trip through the assembly's product V^T c to 1e-9,
    for N up to 64."""
    t0 = time.perf_counter()
    rng = make_rng(33)
    for N in (4, 8, 16, 32, 64):
        prob = SLProblem(N)
        pairs = solve_psd(prob)
        lams = np.array([p.lam for p in pairs])
        want = 4.0 * np.sin(np.arange(1, N) * np.pi / (2 * N)) ** 2
        assert np.abs(lams - want).max() <= 1e-9
        V = pairs.v
        assert np.abs(V @ V.T - np.eye(N - 1)).max() <= 1e-10
        u = rng.standard_normal(N - 1)
        back = V.T @ expand(u, pairs)
        assert np.abs(back - u).max() <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"CRITERION 3 PASS: N in (4..64) spectra/orthogonality/round-trip "
          f"({elapsed:.2f}s)")


def test_criterion_4_propagator_moduli_and_sum():
    """At r = 0.5 every nonzero propagator eigenvalue has unit modulus and
    the branch sum identity holds."""
    t0 = time.perf_counter()
    spec = demo_problem(8, 1.0 / 16.0, 1.0)
    assert spec.grid.r == 0.5
    pd = build_pencil(spec.E, spec.A)
    pairs = solve_psd(spec.sl_problem())
    worst_mod = worst_sum = 0.0
    for l, pair in enumerate(pairs, start=1):
        rho = spec.mode_rho(pair.lam)
        prop = build_propagators(pd, rho)
        for Z in (prop.Z0[0], prop.Z1[0]):
            eigs = np.linalg.eigvals(Z)
            mods = np.abs(eigs[np.abs(eigs) > 1e-6])
            if mods.size:
                worst_mod = max(worst_mod, float(np.abs(mods - 1.0).max()))
        lhs = prop.Z0[0] + prop.Z1[0]
        rhs = (2.0 * np.eye(spec.m) + rho * pd.reduced) @ pd.projector
        worst_sum = max(worst_sum, one_norm(lhs - rhs))
    assert worst_mod <= 1e-10
    assert worst_sum <= 1e-9
    elapsed = time.perf_counter() - t0
    print(f"CRITERION 4 PASS: moduli off unit circle by {worst_mod:.2e}, "
          f"sum identity defect {worst_sum:.2e} ({elapsed:.2f}s)")


def test_criterion_5_demo_residuals():
    """Full solve of the demo instance: every independent residual
    <= 1e-8 relative."""
    t0 = time.perf_counter()
    spec = demo_problem(8, 1.0 / 32.0, 1.0)
    sol = solve_problem(spec)
    rep = residual_report(sol.U, spec)
    for name in ("interior_max", "left_bc_max", "right_bc_max",
                 "init_pos_max", "init_vel_max"):
        assert getattr(rep, name) <= 1e-8, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"CRITERION 5 PASS: worst residual {rep.worst:.2e} "
          f"({elapsed:.2f}s)")


def test_criterion_6_step_refinement_stability():
    """Fixed h = 1/8, T = 1: sup norm varies <= 10% as k halves, and
    propagator powers respect the empirical growth envelope."""
    t0 = time.perf_counter()
    sups = []
    for denom in (32, 64, 128, 256):
        spec = demo_problem(8, 1.0 / denom, 1.0)
        sol = solve_problem(spec)
        stab = sol.stability
        sups.append(stab.sup_norm)
        bound = float(np.exp(spec.grid.T * max(stab.growth_rate, 0.0))
                      * (1.0 + 1e-6))
        pairs = solve_psd(spec.sl_problem())
        rhos = spec.mode_rho(pairs.lam)
        prop = build_propagators(build_pencil(spec.E, spec.A), rhos)
        assert power_norms(prop, spec.grid.M).max() <= bound
        assert stab.power_bound_ok
    assert max(sups) <= 1.10 * min(sups)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"CRITERION 6 PASS: sup norms {[f'{s:.6f}' for s in sups]} "
          f"spread {max(sups) / min(sups) - 1.0:.2e} ({elapsed:.2f}s)")


def test_criterion_7_brute_force_agreement():
    """Spectral solutions match the dense stacked solve on the projector
    range after kernel alignment, <= 1e-6."""
    t0 = time.perf_counter()
    devs = []
    for spec in (scalar_wave_problem(), demo_problem(4, 1.0 / 8.0, 0.5)):
        sol = solve_problem(spec)
        ref = brute_force_reference(spec)
        pd = build_pencil(spec.E, spec.A)
        dev = reference_deviation(sol.U, ref, pd.projector, spec)
        assert dev <= 1e-6
        devs.append(dev)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"CRITERION 7 PASS: deviations {[f'{d:.2e}' for d in devs]} "
          f"({elapsed:.2f}s)")


def test_criterion_8_rejection_paths(tmp_path):
    """Each inadmissible fixture exits with code 2 and a named condition
    in its report."""
    t0 = time.perf_counter()
    cases = [
        (reject_projector_mismatch(), "projector-data-mismatch"),
        (reject_kernel_violation(), "data-outside-boundary-kernel"),
        (reject_full_rank(), "boundary-matrix-full-rank"),
        (reject_rho_degenerate(), "rho-degenerate"),
    ]
    for idx, (spec, condition) in enumerate(cases):
        problem = tmp_path / f"case{idx}.json"
        out = tmp_path / f"out{idx}"
        write_problem(spec, str(problem))
        code = main(["solve", "--input", str(problem),
                     "--out-dir", str(out), "--quiet"])
        assert code == 2, f"{condition}: exit code {code}"
        report = (out / "report.txt").read_text()
        assert f"REJECTED: {condition}" in report, condition
    elapsed = time.perf_counter() - t0
    print(f"CRITERION 8 PASS: all four rejection conditions named "
          f"({elapsed:.2f}s)")
