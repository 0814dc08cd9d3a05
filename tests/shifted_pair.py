"""The shifted pair of a pencil and the Drazin inverse of a
core-nilpotent split, formed apart from build_pencil, so that the tests
can check the projector and reduced operator it stores."""

import numpy as np

from singwave.matrix_core import core_nilpotent


def drazin_inverse(dec):
    """The Drazin inverse T diag(C^-1, 0) T^-1 of a core-nilpotent split:
    the core block inverted and the nilpotent one annihilated."""
    return dec.T[:, : dec.p] @ dec.core_inverse() @ dec.T_inv[: dec.p]


def shifted_pair(E, A, gamma):
    """Ehat = (gamma E + A)^-1 E, Ahat = (gamma E + A)^-1 A and the Drazin
    inverse EhatD of Ehat, each from its own solve or split."""
    S = gamma * E + A
    Ehat = np.linalg.solve(S, E)
    return (Ehat, np.linalg.solve(S, A),
            drazin_inverse(core_nilpotent(Ehat)))


def active_spectrum(pd):
    """The active core diagonal of a pencil in order of modulus, and the
    count of reduced eigenvalues that count as 0 (the inactive core
    diagonal and one for each nilpotent direction)."""
    d = np.diagonal(pd.core)[pd.active]
    return (d[np.argsort(np.abs(d), kind="stable")],
            pd.projector.shape[0] - d.size)
