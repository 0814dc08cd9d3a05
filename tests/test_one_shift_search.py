"""The shift gamma is searched for in one place: only pencil.find_gamma
measures a condition number, and build_pencil takes no gamma of its own.
The propagators take a pencil and the step ratios, with no mode number."""

import glob
import inspect
import os

from singwave.pencil import build_pencil, build_propagators

from test_one_root_table import ROOT, _callers


def test_cond1_only_in_find_gamma():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "singwave", "*.py")))
    assert paths
    found = [hit for path in paths for hit in _callers(path, "_cond1")]
    assert found == ["pencil.find_gamma"], found


def test_pencil_and_propagator_parameters():
    assert list(inspect.signature(build_pencil).parameters) == [
        "E", "A", "tol"]
    assert list(inspect.signature(build_propagators).parameters) == [
        "pd", "rho"]
