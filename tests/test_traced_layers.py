"""The benchmark tracer's layer list names functions that exist."""

import ast
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_layers_resolve():
    # read, not imported: the list is the literal TRACED tuple
    with open(os.path.join(ROOT, "perfbench", "tracer.py"),
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED"
                          for t in node.targets))
    assert traced
    for mod_name, fn_name in traced:
        module = importlib.import_module(f"singwave.{mod_name}")
        assert callable(getattr(module, fn_name, None)), \
            f"singwave.{mod_name}.{fn_name}"
