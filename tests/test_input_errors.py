"""Malformed input to a library entry point raises an InputError, which is
also a ValueError; every table of numbers goes through as_matrix."""

import numpy as np
import pytest

from singwave.errors import InputError, ParseError, ShapeError
from singwave.matrix_core import as_matrix, core_nilpotent, rank_and_kernel
from singwave.pencil import build_pencil, find_gamma
from singwave.sturm_liouville import SLProblem, expand, solve_psd


def _modes():
    return solve_psd(SLProblem(5))


# tables that are not matrices of numbers, and what as_matrix raises
_BAD_TABLES = {
    "string-cell": ([[1.0, "x"], [0.0, 1.0]], ParseError),
    "ragged-rows": ([[1.0, 0.0], [1.0]], ShapeError),
    "booleans": (np.eye(2, dtype=bool), ParseError),
}
_TABLE_TAKERS = {
    "build_pencil": lambda M: build_pencil(M, np.eye(2)),
    "find_gamma": lambda M: find_gamma(np.eye(2), M),
    "core_nilpotent": core_nilpotent,
    "rank_and_kernel": rank_and_kernel,
}


@pytest.mark.parametrize("call, error", [
    (lambda: SLProblem(1), ParseError),
    pytest.param(lambda: SLProblem(float("inf")), ParseError, id="N-inf"),
    pytest.param(lambda: SLProblem(float("nan")), ParseError, id="N-nan"),
    pytest.param(lambda: SLProblem(4.0), ParseError, id="N-float"),
    pytest.param(lambda: SLProblem(4, alpha=float("nan")), ParseError,
                 id="alpha-nan"),
    pytest.param(lambda: SLProblem(4, 0.0, float("inf")), ParseError,
                 id="beta-inf"),
    (lambda: expand(np.zeros(7), _modes()), ShapeError),
    (lambda: core_nilpotent(np.zeros((2, 3))), ShapeError),
    (lambda: as_matrix(np.zeros(3)), ShapeError),
    (lambda: as_matrix(np.zeros((2, 3)), shape=(2, 2)), ShapeError),
    (lambda: find_gamma(np.eye(2), np.eye(3)), ShapeError),
    (lambda: find_gamma(np.zeros((2, 3)), np.zeros((2, 3))), ShapeError),
    (lambda: build_pencil(np.eye(2), np.eye(3)), ShapeError),
    (lambda: build_pencil(np.zeros((2, 3)), np.zeros((2, 3))), ShapeError),
    *(pytest.param(lambda take=take, table=table: take(table), error,
                   id=f"{name}-{kind}")
      for name, take in _TABLE_TAKERS.items()
      for kind, (table, error) in _BAD_TABLES.items()),
])
def test_malformed_input_raises_an_input_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, InputError)
    assert isinstance(info.value, ValueError)
