"""Numerical rank is cut in one place: no package module calls a
pseudoinverse or least-squares routine of its own."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# each makes its own rank cut; matrix_core.min_norm_solve is the one cut
BANNED = {"pinv", "pinvh", "lstsq"}


def _banned_calls(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            if name in BANNED:
                yield f"{os.path.basename(path)}:{node.lineno} {name}"


def test_no_private_rank_cuts():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "singwave", "*.py")))
    assert paths
    found = [hit for path in paths for hit in _banned_calls(path)]
    assert not found, found


def test_checker_sees_a_pinv_call(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import numpy as np\nfrom numpy.linalg import lstsq\n"
                    "x = np.linalg.pinv(a)\ny = lstsq(a, b)\n")
    assert list(_banned_calls(str(path))) == ["sample.py:3 pinv",
                                              "sample.py:4 lstsq"]
