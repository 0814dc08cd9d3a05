"""Endpoint rows come from the eigenfunctions in one place: outside the
residual oracle, no package module forms the discrete endpoint operators
A1 -+ N*A2 or B1 +- N*B2 of its own."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# verify.py checks the matrix relations on every grid, so it forms them
ALLOWED = {"verify.py"}
PAIRS = {"A1": "A2", "B1": "B2"}


def _name(node):
    """The trailing name of ``x``, ``spec.x`` or ``mats["x"]``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
        return node.slice.value
    return None


def _endpoint_operators(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.Add, ast.Sub))):
            continue
        for first, product in ((node.left, node.right),
                               (node.right, node.left)):
            second = PAIRS.get(_name(first))
            if (second and isinstance(product, ast.BinOp)
                    and isinstance(product.op, ast.Mult)
                    and {_name(product.left), _name(product.right)}
                    == {"N", second}):
                yield f"{os.path.basename(path)}:{node.lineno}"


def test_endpoint_operators_only_in_the_oracle():
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "singwave", "*.py")))
    assert paths
    found = [hit for path in paths
             if os.path.basename(path) not in ALLOWED
             for hit in _endpoint_operators(path)]
    assert not found, found


def test_checker_sees_an_endpoint_operator(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("x = spec.A1 - N * spec.A2\n"
                    "y = B1 + grid.N * B2\n"
                    "z = N * mats['A2'] + mats['A1']\n"
                    "w = A1 - A2\n"
                    "v = B1 + N * A2\n")
    assert list(_endpoint_operators(str(path))) == [
        "sample.py:1", "sample.py:2", "sample.py:3"]
