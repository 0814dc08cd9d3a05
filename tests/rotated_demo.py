"""Three demo systems side by side, seen through a change of unknowns.

Every component couples, so the solver's complex modes meet round-off
that a plain demo never shows: with a real orthogonal change of unknowns
the imaginary parts of the grid come out of the products as noise of
about 1e-17 (two demos, m = 6, happen to leave none).
"""

import numpy as np

from singwave.fixtures import demo_problem
from singwave.solver import MATRIX_KEYS, ProblemSpec


def rotated_demos(Q: np.ndarray, scale: complex = 1.0) -> ProblemSpec:
    """Three demos at N=8, k=1/16, T=1/2 with positions scaled by 1, 1/2
    and -1 (velocities by 1, -1 and 2), through u = Q v for a unitary
    9 x 9 Q: every matrix X becomes Q X Q^H and every nodal vector Q v.
    The positions are then scaled by ``scale``; 1 + 1j makes them
    complex."""
    spec = demo_problem(8, 1.0 / 16.0, 0.5)
    mats = {key: Q @ np.kron(np.eye(3), getattr(spec, key)) @ Q.conj().T
            for key in MATRIX_KEYS}
    return ProblemSpec(
        m=9, alpha=spec.alpha, beta=spec.beta, grid=spec.grid,
        F=scale * np.hstack([spec.F, 0.5 * spec.F, -spec.F]) @ Q.T,
        Gv=np.hstack([spec.Gv, -spec.Gv, 2.0 * spec.Gv]) @ Q.T, **mats)
