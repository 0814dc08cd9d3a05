"""Stable solves of coupled two-level difference systems whose
time-coefficient matrix is singular, via generalized inverses and a
discrete eigenfunction basis.

The package exports the README's entry points and the error classes;
everything else is imported from its module.
"""

from .errors import (
    SingwaveError, InputError, ModelRejection, NumericalFailure,
    ParseError, ShapeError, NonFiniteValue, SizeCapExceeded,
    RankFull, ConsistencyViolation, RhoDegenerate, UnstableStepRatio,
    DegenerateBoundary, InconsistentSystem,
    EigendecompositionFailure, NoSquareRoot, NoRegularizingGamma,
    SingularShift, SingularLevelOperator,
)
from .solver import solve_problem
from .verify import residual_report

__version__ = "0.1.0"

__all__ = [
    "solve_problem", "residual_report", "__version__",
    "SingwaveError", "InputError", "ModelRejection", "NumericalFailure",
    "ParseError", "ShapeError", "NonFiniteValue", "SizeCapExceeded",
    "RankFull", "ConsistencyViolation", "RhoDegenerate", "UnstableStepRatio",
    "DegenerateBoundary",
    "EigendecompositionFailure", "NoSquareRoot", "NoRegularizingGamma",
    "SingularShift", "SingularLevelOperator", "InconsistentSystem",
]
