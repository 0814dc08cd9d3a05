"""The loop takes fresh inputs for every sample, scales its times by the
host probe, and still reports when nothing ends correctly."""

import numpy as np
import pytest

import host
import pipeline
import workloads


def test_single_problem_samples_never_repeat(tmp_path):
    manifest = workloads.write_inputs("reference-dense", 5, str(tmp_path))
    paths = [workloads.sample(manifest, idx)[0]["path"] for idx in range(3)]
    docs = [open(path, encoding="utf-8").read() for path in paths]
    assert len(set(paths)) == len(set(docs)) == 3


def test_one_pass_reports_scaled_and_raw_times(tmp_path):
    manifest = workloads.write_inputs("batch-mixed", 4, str(tmp_path))
    res = pipeline.loop(pipeline.Pipeline("batch-mixed", str(tmp_path)),
                        lambda idx: workloads.sample(manifest, idx), 0.0,
                        False)
    assert res["samples"] == 1 and res["errors"] == []
    for name in ("solve_s", "verify_s", "problems_per_s"):
        assert res[name] > 0.0 and res["raw"][name] > 0.0


def test_call_scales_by_the_probes_around_it():
    _, (raw, scaled) = pipeline.Pipeline._call(host.probe)
    # the call is one more probe, so it reads close to the nominal time
    assert scaled == pytest.approx(host.NOMINAL_S, rel=0.5)
    assert raw > 0.0


def test_end_to_end_picks_raw_or_scaled_times():
    sample = {"ok": 2, "program_s": np.array([1.0, 0.5]),
              "solve": [np.array([0.2, 0.1]), np.array([0.4, 0.2])],
              "verify": [np.array([0.1, 0.05])]}
    assert pipeline._end_to_end([sample], 0) == pytest.approx(
        {"solve_s": 0.3, "verify_s": 0.1, "problems_per_s": 2.0})
    assert pipeline._end_to_end([sample], 1) == pytest.approx(
        {"solve_s": 0.15, "verify_s": 0.05, "problems_per_s": 4.0})


def test_end_to_end_without_a_correct_problem():
    failed = {"ok": 0, "program_s": np.array([0.5, 0.5]), "solve": [],
              "verify": []}
    assert pipeline._end_to_end([failed], 1) == {
        "solve_s": None, "verify_s": None, "problems_per_s": 0.0}
