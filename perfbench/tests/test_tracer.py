"""The outside-in tracer restores every name it wraps, and the traced
run's per-layer self times add up to its end-to-end time."""

import json
import os
import sys

import pytest

import pipeline
import run
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _singwave_names():
    return {(key, name): value for key, mod in sys.modules.items()
            if key == "singwave" or key.startswith("singwave.")
            for name, value in vars(mod).items() if callable(value)}


def test_every_wrapped_name_is_restored():
    before = _singwave_names()
    tr = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tr:
            import singwave.solver as solver
            assert solver.build_propagators is not \
                before[("singwave.solver", "build_propagators")]
            raise RuntimeError("leave the traced block early")
    after = _singwave_names()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


@pytest.fixture(scope="module")
def traced_pass(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    manifest = workloads.write_inputs("batch-mixed", 3, str(out))
    return pipeline.loop(pipeline.Pipeline("batch-mixed", str(out)),
                         lambda idx: workloads.sample(manifest, idx), 0.0,
                         True)


def test_self_times_and_remainder_add_up(traced_pass):
    layers = traced_pass["layers"]
    self_sum = sum(layers[f"{name}.self_s"] for name in tracer.LAYERS)
    total = self_sum + layers["untraced_remainder_s"]
    assert total == pytest.approx(layers["traced_e2e_s"], rel=1e-9)
    assert all(layers[f"{name}.self_s"] >= 0.0 for name in tracer.LAYERS)


def test_traced_pass_counts_layers(traced_pass):
    layers = traced_pass["layers"]
    batch = workloads.batch_list(3)
    per_problem = {"cli.run_solve.calls": 1.0,
                   "cli.main.calls": (len(batch) + 7) / len(batch),
                   "verify.brute_force_reference.calls": 0.0}
    for name, value in per_problem.items():
        assert layers[name] == pytest.approx(value)
    assert layers["solver.solve_mode_coefficients.calls"] > 10
    assert layers["cli.write_solution_csv.bytes"] > 0
    assert traced_pass["errors"] == []
    assert traced_pass["failed"] * len(batch) == traced_pass["attempted"]
    assert traced_pass["conditions"] == ["jordan: defective-matrix"]


def test_benchmark_json_names_match_printed_metrics(traced_pass):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(
        traced_pass["layers"])
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.layer_unit(metric["name"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
