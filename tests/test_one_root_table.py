"""The propagator roots are read in one place: only
pencil.build_propagators asks where two roots coincide, and every other
reader takes z, the coincidence mask and the root moduli from its table."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _callers(path, target="_roots_coincide"):
    """module.function for each call of ``target`` in the file, named by
    the top-level definition that holds it."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    module = os.path.splitext(os.path.basename(path))[0]
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", None) or getattr(func, "id", None)
                if name == target:
                    yield f"{module}.{owner}"


def test_roots_coincide_only_in_build_propagators():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "singwave", "*.py")))
    assert paths
    found = [hit for path in paths for hit in _callers(path)]
    assert found == ["pencil.build_propagators"], found


def test_checker_names_each_caller(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def f(z):\n    return _roots_coincide(z)\n\n"
                    "class K:\n    def g(self, z):\n"
                    "        return pencil._roots_coincide(z)\n\n"
                    "x = _roots_coincide(0)\n")
    assert list(_callers(str(path))) == ["sample.f", "sample.K",
                                         "sample.<module>"]
