"""The closed loop of one benchmark process, its checks and its tracer.

``worker.py`` imports this module only after it has timed the program's
set-up, so nothing here counts towards ``setup_s``.  ``loop`` runs
samples one after another (one client, closed loop) until its time is
up, checks every output with ``checker`` and returns the end-to-end or,
traced, the per-layer figures.
"""

import gc
import os
import resource
import time
from statistics import median
from types import SimpleNamespace

import numpy as np

import singwave.cli as cli
import singwave.verify as sw_verify

import checker
import host
import tracer
import workloads


class Pipeline:
    """Runs one problem through solve, verify and, on reference-dense,
    the dense reference, timing each program call and checking every
    output; the benchmark's own work is never inside a timed interval.

    Every time is a pair [raw seconds, seconds scaled by ``host.scale``
    with the mean of two host probes taken just before and just after
    the call]."""

    def __init__(self, workload: str, out_dir: str):
        self.workload = workload
        self.out = os.path.join(out_dir, "out")

    @staticmethod
    def _call(fn, *args):
        gc.collect()
        before = host.probe()
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
        probe_s = (before + host.probe()) / 2.0
        return result, np.array([seconds, host.scale(seconds, probe_s)])

    def run(self, entry: dict) -> dict:
        """Outcome and program times of one problem."""
        for name in ("solution.csv", "eigen.csv", "report.txt"):
            if os.path.exists(os.path.join(self.out, name)):
                os.remove(os.path.join(self.out, name))
        rec = {"ok": False, "failed": False, "errors": [], "verify_s": None,
               "condition": None, "csv_bytes": 0}
        path = entry["path"]
        code, rec["solve_s"] = self._call(
            cli.main, ["solve", "--input", path, "--out-dir", self.out,
                       "--quiet"])
        rec["program_s"] = rec["solve_s"].copy()
        if entry["expect"] == "reject":
            rec["errors"] = checker.check_rejected(code, self.out,
                                                   entry["condition"])
            rec["ok"] = not rec["errors"]
            return rec
        if code != 0:
            rec["failed"] = True
            rec["condition"] = checker.failure_condition(code, self.out)
            return rec
        solution = os.path.join(self.out, "solution.csv")
        rec["csv_bytes"] = os.path.getsize(solution)
        prob = checker.read_problem(path)
        rec["errors"], U = checker.check_accepted(prob, self.out)
        code, rec["verify_s"] = self._call(
            cli.main, ["verify", "--input", path, "--solution", solution,
                       "--quiet"])
        rec["program_s"] += rec["verify_s"]
        if code != 0:
            rec["errors"].append(f"verify exited {code}")
        # a grid the checker could not read has its error already
        if self.workload == "reference-dense" and U is not None:
            rec["program_s"] += self._reference(prob, U, rec["errors"])
        rec["ok"] = not rec["errors"]
        return rec

    def _reference(self, prob, U, errors) -> np.ndarray:
        """Dense reference and the written grid's deviation from it."""
        grid = SimpleNamespace(N=prob["N"], M=prob["M"], k=prob["k"],
                               r=prob["r"], T=prob["T"])
        spec = SimpleNamespace(grid=grid, Gv=prob["G"], **{
            key: prob[key] for key in ("m", "E", "A", "A1", "A2", "B1",
                                       "B2", "F")})
        ref, t_ref = self._call(sw_verify.brute_force_reference, spec)
        projector = np.array(workloads.DEMO_PROJECTOR, dtype=complex)
        dev, t_dev = self._call(sw_verify.reference_deviation, U, ref,
                                projector, spec)
        if not dev <= 1e-6:
            errors.append(f"reference deviation {dev:.3e} > 1e-6")
        return t_ref + t_dev


def run_sample(pipeline, sample) -> dict:
    """Totals of one sample: one problem, or one pass of the list."""
    agg = {"attempted": 0, "failed": 0, "ok": 0, "program_s": np.zeros(2),
           "csv_bytes": 0, "solve": [], "verify": [], "errors": [],
           "conditions": []}
    for entry in sample:
        rec = pipeline.run(entry)
        agg["attempted"] += 1
        agg["program_s"] += rec["program_s"]
        agg["csv_bytes"] += rec["csv_bytes"]
        if rec["failed"]:
            agg["failed"] += 1
            agg["conditions"].append(f'{entry["name"]}: {rec["condition"]}')
            continue
        agg["errors"].extend(f'{entry["name"]}: {e}' for e in rec["errors"])
        if rec["ok"]:
            agg["ok"] += 1
            agg["solve"].append(rec["solve_s"])
            if rec["verify_s"] is not None:
                agg["verify"].append(rec["verify_s"])
    return agg


def _median(values):
    """Median of ``values``; None when no sample ended correctly."""
    return median(values) if values else None


def _end_to_end(samples, kind: int) -> dict:
    """Medians over samples of solve_s, verify_s and problems_per_s, from
    the raw (``kind`` 0) or the scaled (``kind`` 1) times."""
    def mean_time(times):
        return sum(t[kind] for t in times) / len(times)
    return {"solve_s": _median([mean_time(a["solve"]) for a in samples
                                if a["solve"]]),
            "verify_s": _median([mean_time(a["verify"]) for a in samples
                                 if a["verify"]]),
            "problems_per_s": median([a["ok"] / a["program_s"][kind]
                                      for a in samples])}


def loop(pipeline, sample_at, seconds: float, trace: bool) -> dict:
    """Run samples ``sample_at(0)``, ``sample_at(1)``, ... until
    ``seconds`` have passed; ``sample_at`` makes its inputs outside every
    timed interval.

    Without ``trace`` the result holds the end-to-end medians over
    samples of the scaled times, and those of the raw times under
    ``raw``.  With it, each sample runs once plain and once traced, in
    alternating order, and the result holds raw per-layer totals per
    traced problem together with the tracing overhead."""
    plain, traced = [], []
    layer_tot = {name: [0.0, 0] for name in tracer.LAYERS}
    top_s = 0.0
    tr = tracer.Tracer()
    t_start = time.perf_counter()
    idx = 0
    while idx == 0 or time.perf_counter() - t_start < seconds:
        sample = sample_at(idx)
        order = ((False, True) if idx % 2 == 0 else (True, False)) \
            if trace else (False,)
        for with_trace in order:
            if not with_trace:
                plain.append(run_sample(pipeline, sample))
                continue
            with tr:
                traced.append(run_sample(pipeline, sample))
            summ = tracer.summary(tr.take())
            for name in tracer.LAYERS:
                layer_tot[name][0] += summ[name][0]
                layer_tot[name][1] += summ[name][1]
            top_s += summ[None]
        idx += 1

    runs = plain + traced
    result = {"attempted": sum(a["attempted"] for a in runs),
              "failed": sum(a["failed"] for a in runs),
              "errors": [e for a in runs for e in a["errors"]][:20],
              "conditions": sorted({c for a in runs for c in a["conditions"]}),
              "samples": idx,
              "sample_program_s": [a["program_s"][0] for a in plain],
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if not trace:
        result.update(_end_to_end(plain, 1), raw=_end_to_end(plain, 0))
        return result
    per = sum(a["attempted"] for a in traced)
    traced_s = sum(a["program_s"][0] for a in traced)
    plain_s = sum(a["program_s"][0] for a in plain)
    layers = {}
    for name in tracer.LAYERS:
        layers[f"{name}.self_s"] = layer_tot[name][0] / per
        layers[f"{name}.calls"] = layer_tot[name][1] / per
    layers["cli.write_solution_csv.bytes"] = sum(
        a["csv_bytes"] for a in traced) / per
    layers["traced_e2e_s"] = traced_s / per
    layers["untraced_e2e_s"] = plain_s / per
    layers["untraced_remainder_s"] = (traced_s - top_s) / per
    layers["trace_overhead_s"] = (traced_s - plain_s) / per
    result["layers"] = layers
    return result
