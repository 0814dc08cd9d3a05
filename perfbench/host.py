"""Host-speed probe.

On a shared host the speed of interpreted code drifts between levels up
to about 1.8x apart, each lasting from seconds to minutes, so two runs
of the same code can differ by more than any useful bound.  ``probe``
times a fixed pure-Python loop that touches neither ``singwave`` nor
numpy.  A program time divided by the probe time taken next to it
cancels the drift, while a change to the program moves it as much as it
moves the raw time.  Every end-to-end time is reported as
``scale(seconds, probe_s)``: seconds at the host speed at which the
probe takes ``NOMINAL_S``.
"""

import time

NOMINAL_S = 0.010
_ITERATIONS = 100_000


def probe() -> float:
    """Seconds the fixed loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` taken while the probe took ``probe_s``, at the
    nominal host speed."""
    return seconds * NOMINAL_S / probe_s
