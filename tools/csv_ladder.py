"""Time writing and reading solution.csv by one process and by two.

    python tools/csv_ladder.py SRC [--repetitions R] [--rungs N ...]
        [--out FILE]

SRC is a directory holding the ``singwave`` package (a checkout's
``src/``), so that two trees can run the same ladder.  Each rung is a
random complex grid of the demo's shape (m = 3, M = 4N, k = 1/M); the
default rungs hold 2^13 to 2^20.6 float values, and ``--rungs`` names
other values of N; N = 128 is ``demo-large``'s size (2^18.6 values).
At each rung the grid is written and read R times by one process
(``_CSV_SPLIT`` of the codec module, ``singwave.csv_io``, or
``singwave.cli`` in trees older than it, set above the grid's size) and
R times by two (``_CSV_SPLIT`` set to 1),
alternating which runs first; every written file must have the same bytes
both ways and every read must return the written grid bit for bit, or the
tool stops.  Before the ladder one demo solve at N = 128, M = 512 runs
and its result stays referenced, so that the heap a fork copies is like
that of ``verify`` in a benchmark worker.

Prints, or writes to FILE, one JSON document: per rung the medians and
quartiles (``statistics.quantiles``, n = 4) of the write and read times
in seconds, both ways, the speed-ups (one process over two) and the
minor page faults (``getrusage``) summed over each way's reads.  Uses the
standard library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from types import SimpleNamespace

import numpy as np

RUNGS = (18, 26, 37, 52, 74, 105, 128, 256)  # N: 2^13 to 2^20.6 values


def _quartiles(times):
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median": round(statistics.median(times), 5),
            "q1": round(q1, 5), "q3": round(q3, 5)}


def _timed(function):
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    result = function()
    seconds = time.perf_counter() - start
    return (result, seconds,
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)


def rung(csv_io, N, repetitions, work, rng):
    """The write and read times of one demo-shaped random grid."""
    from singwave.solver import GridParams

    M = 4 * N
    grid = GridParams.create(N, 1.0 / M, 1.0)
    spec = SimpleNamespace(grid=grid, m=3)
    U = (rng.standard_normal((N + 1, M + 1, 3))
         + 1j * rng.standard_normal((N + 1, M + 1, 3)))
    bits = U.view(np.int64)
    ways = {"serial": 2 * U.size + 1, "split": 1}
    times = {f"{step}_{way}": [] for step in ("write", "read")
             for way in ways}
    faults = dict.fromkeys(ways, 0)
    expected = None
    for rep in range(repetitions):
        order = list(ways) if rep % 2 == 0 else list(ways)[::-1]
        for way in order:
            csv_io._CSV_SPLIT = ways[way]
            path = os.path.join(work, f"{way}.csv")
            _, seconds, _ = _timed(lambda: csv_io.write_solution_csv(
                U, grid, path))
            times[f"write_{way}"].append(seconds)
            with open(path, "rb") as fh:
                text = fh.read()
            if expected is None:
                expected = text
            if text != expected:
                sys.exit(f"N={N}: the {way} write differs")
            back, seconds, minflt = _timed(lambda: csv_io.read_solution_csv(
                path, spec))
            if not np.array_equal(back.view(np.int64), bits):
                sys.exit(f"N={N}: the {way} read differs")
            times[f"read_{way}"].append(seconds)
            faults[way] += minflt
    row = {"N": N, "M": M, "m": 3, "values": 2 * U.size,
           "log2_values": round(float(np.log2(2 * U.size)), 2),
           "csv_bytes": len(expected)}
    row.update((key, _quartiles(value)) for key, value in times.items())
    for step in ("write", "read"):
        row[f"{step}_speedup"] = round(
            row[f"{step}_serial"]["median"] / row[f"{step}_split"]["median"],
            3)
    row.update((f"read_minor_faults_{way}", count)
               for way, count in faults.items())
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="directory holding the singwave package")
    parser.add_argument("--repetitions", type=int, default=15)
    parser.add_argument("--rungs", type=int, nargs="+", default=RUNGS,
                        metavar="N", help="grid sizes N to time")
    parser.add_argument("--out", help="JSON file to write (default stdout)")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    try:
        from singwave import csv_io
    except ImportError:  # a tree whose cli module holds the codec
        from singwave import cli as csv_io
    from singwave.fixtures import demo_problem
    from singwave.solver import solve_problem

    if not csv_io._two_processes():
        sys.exit("this host cannot run two processes; nothing to compare")
    held = solve_problem(demo_problem(128, 1.0 / 512, 1.0))  # noqa: F841
    rng = np.random.default_rng(29)
    with tempfile.TemporaryDirectory(prefix="csv_ladder-") as work:
        rows = [rung(csv_io, N, args.repetitions, work, rng)
                for N in args.rungs]
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
