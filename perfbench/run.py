"""Benchmark of ``singwave solve``, ``verify`` and the dense reference.

    python3 perfbench/run.py --workload demo-large --seed 1 --seconds 30 --trace 0

Generates the run's inputs from the seed, then starts fresh worker
processes one at a time: several that only time the program's set-up,
before and after one that also runs the workload as a closed loop with
one client for ``--seconds``.  BLAS and OpenMP are held to one thread in
every worker.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, scaled to a fixed host speed by ``host.py`` (the
unscaled medians go to stderr), the per-layer metrics (also written to
``perfbench/out/trace-<workload>-<seed>.json``) with ``--trace 1``.
``solve_s`` and ``verify_s`` are null when no problem ended correctly.
Exits non-zero, printing no result, when the program's sources are
missing or a worker fails.  See README.md for the workloads and metrics.
"""

import os

# before numpy loads here, and inherited by every worker
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# set-up is timed in this many fresh processes, the looping one included;
# half of the others run before the loop and half after it, so that the
# median samples the host's speed over the whole run
SETUP_PROCESSES = 7
# time allowed beyond --seconds: generation, the set-up processes and the
# sample in progress when the time is up
DEADLINE_MARGIN_S = 145.0

E2E_UNITS = {"setup_s": "s", "solve_s": "s", "verify_s": "s",
             "problems_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".bytes"):
        return "B"
    return "s"


def _worker(manifest: str, seconds: float, trace: int, setup_only: bool,
            deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--manifest", manifest, "--seconds", repr(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setups(manifest: str, deadline: float) -> list:
    """Results of half the set-up-only processes."""
    return [_worker(manifest, 0.0, 0, True, deadline)
            for _ in range(SETUP_PROCESSES // 2)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S

    if not os.path.isfile(os.path.join(ROOT, "src", "singwave", "cli.py")):
        print("singwave sources not found under src/", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    run_dir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        manifest = workloads.write_inputs(args.workload, args.seed, run_dir)
        manifest_path = os.path.join(run_dir, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        setups = _setups(manifest_path, deadline)
        res = _worker(manifest_path, args.seconds, args.trace, False,
                      deadline)
        setups += _setups(manifest_path, deadline) + [res]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    raw_setups = [r["setup_raw_s"] for r in setups]
    setups = [r["setup_s"] for r in setups]

    for line in res["errors"]:
        print(f"WRONG: {line}", file=sys.stderr)
    for line in res["conditions"]:
        print(f"FAILED: {line}", file=sys.stderr)
    if "raw" in res:
        raw = dict(res["raw"], setup_s=statistics.median(raw_setups))
        print("unscaled: " + ", ".join(f"{name} {value}" for name, value
                                       in raw.items()), file=sys.stderr)
    print(f"{res['samples']} samples, {res['attempted']} problems, "
          f"{res['failed']} failed; program seconds per sample: "
          + " ".join(f"{t:.3f}" for t in res["sample_program_s"]),
          file=sys.stderr)

    if args.trace:
        values = res["layers"]
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "per_problem": values}, fh, indent=1)
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in values.items()}
    else:
        values = {"setup_s": statistics.median(setups)}
        values.update({name: res[name] for name in
                       ("solve_s", "verify_s", "problems_per_s",
                        "peak_rss_mb")})
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in values.items()}
    print(json.dumps({"correct": not res["errors"],
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
