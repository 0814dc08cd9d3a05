"""Time the solver's layers on the demo and on a rotated demo.

    python tools/layer_ladder.py SRC [--repetitions R] [--rungs N ...]
        [--out FILE]

SRC is a directory holding the ``singwave`` package (a checkout's
``src/``), so that two trees can run the same ladder.  Each rung is the
demo at N, r = 0.5 (k = 1/(2N)), T = 2 and so M = 4N, and the same demo
through a random 3 x 3 orthogonal change of unknowns (seeded): every
matrix X becomes Q X Q^T and every nodal vector Q v.  The rotated core
has round-off above its diagonal, so its grid is assembled by the
stepped path.  The default rungs are N = 128 (``demo-large``'s size),
256 and 512.

One solve of each problem gives the inputs of every layer; then each
layer runs R times in turn and is timed alone:

- ``eigen``: ``solve_psd`` of the Sturm-Liouville problem;
- ``pencil``: ``build_pencil``;
- ``propagators_modes``: the two data expansions, ``build_propagators``
  and ``solve_mode_coefficients``;
- ``assembly``: ``assemble_solution``;
- ``stability``: ``stability_report``;
- ``oracle``: ``residual_report`` of the grid.

BLAS and OpenMP are held to one thread.  Prints, or writes to FILE, one
JSON document: per case and rung the medians and quartiles
(``statistics.quantiles``, n = 4) of each layer's wall time in seconds.
Uses the standard library and numpy only.
"""

from __future__ import annotations

import os

# before numpy loads
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

RUNGS = (128, 256, 512)
LAYERS = ("eigen", "pencil", "propagators_modes", "assembly", "stability",
          "oracle")


def _quartiles(times):
    q1, _, q3 = statistics.quantiles(times, n=4)
    return {"median": round(statistics.median(times), 6),
            "q1": round(q1, 6), "q3": round(q3, 6)}


def rotated(spec, Q):
    """The problem seen through u = Q v."""
    from singwave.solver import MATRIX_KEYS, ProblemSpec

    mats = {key: Q @ getattr(spec, key) @ Q.T for key in MATRIX_KEYS}
    return ProblemSpec(m=spec.m, alpha=spec.alpha, beta=spec.beta,
                       grid=spec.grid, F=spec.F @ Q.T, Gv=spec.Gv @ Q.T,
                       **mats)


def layers(spec):
    """One callable per layer, each on the inputs a full solve gives."""
    from singwave.pencil import build_pencil, build_propagators
    from singwave.solver import (assemble_solution, solve_mode_coefficients,
                                 solve_problem, stability_report)
    from singwave.sturm_liouville import expand, solve_psd
    from singwave.verify import residual_report

    sol = solve_problem(spec)
    pd, eig, props = sol.pencil, sol.eigenpairs, sol.propagators
    k, inner = spec.grid.k, slice(1, spec.grid.N)
    F, G = spec.F[inner], spec.F[inner] + k * spec.Gv[inner]

    def propagators_modes():
        fc, gc = expand(F, eig), expand(G, eig)
        built = build_propagators(pd, spec.mode_rho(eig.lam))
        return solve_mode_coefficients(spec, pd, built, fc, gc)

    return {
        "eigen": lambda: solve_psd(spec.sl_problem()),
        "pencil": lambda: build_pencil(spec.E, spec.A,
                                       tol=spec.tolerances.rank),
        "propagators_modes": propagators_modes,
        "assembly": lambda: assemble_solution(spec, pd, props, sol.modes,
                                              eig),
        "stability": lambda: stability_report(spec, props, sol.U),
        "oracle": lambda: residual_report(sol.U, spec),
    }


def rung(spec, repetitions):
    """Each layer's times on one problem, the layers taken in turn."""
    calls = layers(spec)
    times = {name: [] for name in LAYERS}
    for _ in range(repetitions):
        for name in LAYERS:
            start = time.perf_counter()
            calls[name]()
            times[name].append(time.perf_counter() - start)
    return {name: _quartiles(value) for name, value in times.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="directory holding the singwave package")
    parser.add_argument("--repetitions", type=int, default=9)
    parser.add_argument("--rungs", type=int, nargs="+", default=RUNGS,
                        metavar="N", help="grid sizes N to time")
    parser.add_argument("--out", help="JSON file to write (default stdout)")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from singwave.fixtures import demo_problem

    Q, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((3, 3)))
    rows = []
    for N in args.rungs:
        demo = demo_problem(N, 1.0 / (2 * N), 2.0)
        for case, spec in (("demo", demo), ("rotated", rotated(demo, Q))):
            row = {"case": case, "N": N, "M": spec.grid.M, "m": spec.m}
            row.update(rung(spec, args.repetitions))
            rows.append(row)
    doc = {"src": os.path.abspath(args.src),
           "python": platform.python_version(), "numpy": np.__version__,
           "cpus": len(os.sched_getaffinity(0)),
           "repetitions": args.repetitions, "rows": rows}
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
