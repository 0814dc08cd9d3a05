"""Outside-in span tracer for the ``singwave`` layers.

The program is not edited: each traced function is replaced, in every
``singwave`` module that holds a reference to it, by a wrapper that
records a span (name, start, end, parent), and the original is put back
when the ``Tracer`` context exits.  Spans stay in memory; ``summary``
turns them into per-layer self times (a span's duration minus that of
its direct children) and call counts.
"""

from __future__ import annotations

import functools
import sys
import time

# (defining module, function) for every traced layer
TRACED = (
    ("cli", "main"),
    ("cli", "run_solve"),
    ("cli", "run_verify"),
    ("cli", "parse_problem"),
    ("cli", "build_report"),
    ("cli", "write_eigen_csv"),
    ("cli", "write_solution_csv"),
    ("cli", "read_solution_csv"),
    ("sturm_liouville", "solve_psd"),
    ("sturm_liouville", "expand"),
    ("pencil", "build_pencil"),
    ("pencil", "build_propagators"),
    ("matrix_core", "matrix_function"),
    ("solver", "build_boundary_matrix"),
    ("solver", "check_consistency"),
    ("solver", "solve_mode_coefficients"),
    ("solver", "assemble_solution"),
    ("solver", "stability_report"),
    ("verify", "residual_report"),
    ("verify", "brute_force_reference"),
    ("verify", "reference_deviation"),
)
LAYERS = tuple(f"{mod}.{fn}" for mod, fn in TRACED)
PACKAGE = "singwave"


class Tracer:
    """Context manager that wraps every ``TRACED`` name while active.

    ``spans`` holds one [name, start, end, parent index] record per span,
    in the order the spans opened; parent is -1 for a span opened outside
    any other.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return traced

    def __enter__(self):
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == PACKAGE
                                           or key.startswith(PACKAGE + "."))]
        for mod_name, fn_name in TRACED:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._saved.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, fn_name, original in reversed(self._saved):
            setattr(mod, fn_name, original)
        self._saved.clear()
        return False

    def take(self) -> list:
        """Return and forget the spans recorded so far."""
        spans, self.spans[:] = list(self.spans), []
        return spans


def summary(spans) -> dict:
    """Per-layer totals over ``spans``: {name: [self seconds, calls]},
    plus the summed duration of the outermost spans under ``None``."""
    out = {name: [0.0, 0] for name in LAYERS}
    child_time = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            top += end - start
    for idx, (name, start, end, _) in enumerate(spans):
        out[name][0] += (end - start) - child_time[idx]
        out[name][1] += 1
    out[None] = top
    return out
