"""Ready-made problem instances.

The demo problem is a three-component system whose time-coefficient
matrix is singular and whose endpoint couplings mix all components; its
initial data is built from the discrete eigenbasis, endpoint rows
included, so that every admissibility gate passes.  A classical scalar
wave instance and four deliberately inadmissible variants (one per
rejection path) accompany it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .solver import GridParams, ProblemSpec
from .sturm_liouville import SLProblem, boundary_scalars, solve_psd


def demo_matrices() -> dict:
    """Coefficient matrices of the demo system (singular E, coupled ends)."""
    E = np.array([[1.0, 0.0, 1.0],
                  [0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0]], dtype=complex)
    A = np.diag([0.0, 1.0, 1.0]).astype(complex)
    A1 = np.array([[1.0, 0.0, 1.0],
                   [0.0, 1.0, 0.0],
                   [0.0, 0.0, 1.0]], dtype=complex)
    A2 = np.diag([2.0, 2.0, 0.0]).astype(complex)
    B1 = np.eye(3, dtype=complex)
    B2 = np.eye(3, dtype=complex)
    return {"E": E, "A": A, "A1": A1, "A2": A2, "B1": B1, "B2": B2,
            "alpha": 2.0, "beta": 1.0}


def _with_boundary(interior: np.ndarray, mats: dict) -> np.ndarray:
    """Stack the eigenfunctions' endpoint rows, a times the first and b
    times the last interior row (boundary_scalars of mats' alpha, beta)."""
    N = interior.shape[0] + 1
    full = np.zeros((N + 1, interior.shape[1]), dtype=complex)
    full[1:N] = interior
    a, b = boundary_scalars(SLProblem(N, mats["alpha"], mats["beta"]))
    full[0] = a * interior[0]
    full[N] = b * interior[-1]
    return full


def demo_problem(N: int = 8, k: float = 1.0 / 32.0,
                 T: float = 1.0) -> ProblemSpec:
    """The main worked instance: singular E, rank-one endpoint matrix.

    Initial position has a smooth profile in the two admissible
    components; initial velocity is a combination of higher eigenmodes
    carrying no component along the lowest mode, which does not
    propagate, and so is zero at N = 2.
    """
    mats = demo_matrices()
    grid = GridParams.create(N, k, T)
    slp = SLProblem(N, mats["alpha"], mats["beta"])
    V = solve_psd(slp).v
    x = np.arange(1, N) / N
    f1 = np.sin(np.pi * x)
    f2 = x * (1.0 - x)
    F_int = np.zeros((N - 1, 3), dtype=complex)
    F_int[:, 0] = f1
    F_int[:, 1] = f2
    hi = min(4, N - 1)
    G_int = np.zeros((N - 1, 3), dtype=complex)
    if N > 2:  # at N = 2 the lowest mode is the only one
        G_int[:, 1] = 0.25 * V[1] + 0.1 * V[hi - 1]
    return ProblemSpec(
        m=3, E=mats["E"], A=mats["A"], A1=mats["A1"], A2=mats["A2"],
        B1=mats["B1"], B2=mats["B2"], alpha=mats["alpha"], beta=mats["beta"],
        F=_with_boundary(F_int, mats),
        Gv=_with_boundary(G_int, mats),
        grid=grid)


def scalar_wave_problem(N: int = 4, k: float = 0.1,
                        T: float = 0.4) -> ProblemSpec:
    """Classical one-component wave with clamped ends (nothing singular)."""
    one = np.array([[1.0]], dtype=complex)
    zero = np.array([[0.0]], dtype=complex)
    grid = GridParams.create(N, k, T)
    x = np.arange(N + 1) / N
    F = np.zeros((N + 1, 1), dtype=complex)
    F[1:N, 0] = np.sin(np.pi * x[1:N])
    Gv = np.zeros((N + 1, 1), dtype=complex)
    Gv[1:N, 0] = 0.3 * np.sin(2.0 * np.pi * x[1:N])
    return ProblemSpec(m=1, E=one, A=one, A1=one, A2=zero, B1=one, B2=zero,
                       alpha=0.0, beta=0.0, F=F, Gv=Gv, grid=grid)


def reject_projector_mismatch(N: int = 8, k: float = 1.0 / 32.0,
                              T: float = 1.0) -> ProblemSpec:
    """Demo data polluted in the non-propagating third component."""
    spec = demo_problem(N, k, T)
    F = spec.F.copy()
    F[1:N, 2] += 0.5
    return replace(spec, F=F)


def reject_kernel_violation(N: int = 8, k: float = 1.0 / 32.0,
                            T: float = 1.0) -> ProblemSpec:
    """Endpoint matrix with a smaller kernel than the data occupies."""
    spec = demo_problem(N, k, T)
    B2 = np.diag([1.0, 0.0, 1.0]).astype(complex)
    return replace(spec, B2=B2)


def reject_full_rank(N: int = 8, k: float = 1.0 / 32.0,
                     T: float = 1.0) -> ProblemSpec:
    """Endpoint matrix of full rank: no admissible states at all."""
    mats = demo_matrices()
    grid = GridParams.create(N, k, T)
    eye = np.eye(3, dtype=complex)
    zero3 = np.zeros((3, 3), dtype=complex)
    F = np.zeros((N + 1, 3), dtype=complex)
    Gv = np.zeros((N + 1, 3), dtype=complex)
    return ProblemSpec(m=3, E=mats["E"], A=mats["A"], A1=eye, A2=zero3,
                       B1=eye, B2=zero3, alpha=1.0, beta=1.0,
                       F=F, Gv=Gv, grid=grid)


def reject_rho_degenerate() -> ProblemSpec:
    """Scalar wave tuned so the propagator roots coincide with data that
    needs both branches."""
    k = np.sqrt(2.0) / 2.0
    spec = scalar_wave_problem(2, k, 4.0 * k)  # F = 1 at the interior node
    return replace(spec, Gv=np.zeros((3, 1), dtype=complex))
