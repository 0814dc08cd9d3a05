"""One benchmark process: timed set-up, then a closed loop of problems.

Started by ``run.py`` in a fresh interpreter.  ``setup_s`` is the
program's own set-up: importing ``singwave.cli`` (numpy, scipy) and one
warm-up problem through ``solve`` and ``verify``.  It starts after this
process has read its arguments and manifest, and it ends before any
benchmark module (checker, tracer, generator, host probe) is imported;
it is then scaled by the host probe (``host.py``).  With
``--setup-only`` the process stops there; otherwise it runs
``pipeline.loop`` for ``--seconds`` and prints one JSON document.
"""

import argparse
import functools
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
# host probes that scale this process's set-up time
SETUP_PROBES = 5


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    out_dir = os.path.join(manifest["out_dir"], f"proc{os.getpid()}")
    warmup = manifest["warmup"]["path"]
    solution = os.path.join(out_dir, "warmup", "solution.csv")

    t0 = time.perf_counter()
    import singwave.cli as cli
    codes = (cli.main(["solve", "--input", warmup, "--out-dir",
                       os.path.dirname(solution), "--quiet"]),
             cli.main(["verify", "--input", warmup, "--solution", solution,
                       "--quiet"]))
    setup_s = time.perf_counter() - t0
    if codes != (0, 0):
        print(f"warm-up solve and verify exited {codes}", file=sys.stderr)
        return 1
    import host
    probe_s = statistics.median(host.probe() for _ in range(SETUP_PROBES))
    result = {"setup_s": host.scale(setup_s, probe_s),
              "setup_raw_s": setup_s}

    if not args.setup_only:
        import pipeline
        import workloads
        result.update(pipeline.loop(
            pipeline.Pipeline(manifest["workload"], out_dir),
            functools.partial(workloads.sample, manifest), args.seconds,
            bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
