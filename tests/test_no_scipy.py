"""The package runs on numpy and orjson, without scipy: no module under
src/ imports scipy, and pyproject.toml does not depend on it."""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _scipy_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            yield f"{os.path.basename(path)}:{node.lineno}"


def _dependencies(text):
    """The entries of [project].dependencies in a pyproject.toml."""
    project = re.search(r"^\[project\]$(.*?)(?=^\[)", text + "\n[",
                        re.M | re.S).group(1)
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project,
                      re.M | re.S).group(1)
    return re.findall(r"[\"']([^\"']+)[\"']", block)


def test_no_scipy_import_under_src():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                             recursive=True))
    assert paths
    found = [hit for path in paths for hit in _scipy_imports(path)]
    assert not found, found


def test_no_scipy_dependency():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        deps = _dependencies(fh.read())
    assert any(dep.startswith("numpy") for dep in deps), deps
    assert not [dep for dep in deps if re.match(r"scipy\b", dep)], deps


def test_checker_sees_a_scipy_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import numpy as np\nimport scipy.linalg\n"
                    "def f():\n    from scipy import linalg\n"
                    "    import scipyx\n")
    assert list(_scipy_imports(str(path))) == ["sample.py:2", "sample.py:4"]


def test_checker_reads_the_dependency_list():
    text = ('[project]\nname = "x"\ndependencies = [\n    "numpy>=1.24",\n'
            '    "scipy>=1.10",\n]\n\n[project.optional-dependencies]\n'
            'test = ["pytest"]\n')
    assert _dependencies(text) == ["numpy>=1.24", "scipy>=1.10"]
