"""Peak 1-norms of propagator powers: a test oracle that steps the two
branches of every mode, apart from the solver's verdict read off the
roots."""

import numpy as np


def power_norms(propagators, M):
    """Each mode's max over j = 1..M of ||Z0^j||_1 and of ||Z1^j||_1.

    Returns a (2, modes) array, branch Z0 first.
    """
    Z = np.stack([propagators.Z0, propagators.Z1])  # (branch, modes, m, m)
    power, peak = Z, np.zeros(Z.shape[:2])
    for j in range(1, M + 1):
        np.maximum(peak, np.abs(power).sum(axis=-2).max(axis=-1), out=peak)
        if j < M:
            power = power @ Z
    return peak
