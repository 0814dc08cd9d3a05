"""Exception taxonomy, and Gate, the threshold decision that raises one.

Every error carries a stable ``condition`` slug (used by report.txt and the CLI
to name the failure) and an ``exit_code`` consumed by the command line front
end: 2 for model rejection, 3 for input problems, 4 for numerical failure.
"""

from dataclasses import dataclass


class SingwaveError(Exception):
    """Base class for all library errors."""

    condition = "error"
    exit_code = 4

    def __init__(self, message: str = "", condition: str | None = None):
        super().__init__(message)
        if condition is not None:
            self.condition = condition


class InputError(SingwaveError, ValueError):
    """Malformed or unusable input data (a ValueError too)."""

    condition = "invalid-input"
    exit_code = 3


class ParseError(InputError):
    condition = "parse-error"


class ShapeError(InputError):
    condition = "bad-shape"


class NonFiniteValue(InputError):
    condition = "non-finite-value"


class SizeCapExceeded(InputError):
    condition = "size-cap-exceeded"


class ModelRejection(SingwaveError):
    """The problem instance fails a structural requirement of the method."""

    condition = "model-rejected"
    exit_code = 2


class RankFull(ModelRejection):
    condition = "boundary-matrix-full-rank"


class ConsistencyViolation(ModelRejection):
    condition = "inconsistent-initial-data"


class RhoDegenerate(ModelRejection):
    condition = "rho-degenerate"


class UnstableStepRatio(ModelRejection):
    condition = "unstable-step-ratio"


class DegenerateBoundary(ModelRejection):
    condition = "degenerate-boundary-scalars"


class InconsistentSystem(ModelRejection):
    condition = "inconsistent-discrete-system"


class NumericalFailure(SingwaveError):
    """A numerical routine could not deliver a trustworthy result."""

    condition = "numerical-failure"
    exit_code = 4


class EigendecompositionFailure(NumericalFailure):
    condition = "eigendecomposition-failure"


class NoSquareRoot(NumericalFailure):
    """A triangular matrix at stack ``index`` has no square root; ``row``
    is the first of two zero diagonal roots with a nonzero coupling."""

    condition = "no-square-root"

    def __init__(self, message: str, index: tuple, row: int):
        super().__init__(message)
        self.index, self.row = index, row


class NoRegularizingGamma(NumericalFailure):
    condition = "no-regularizing-gamma"


class SingularShift(NumericalFailure):
    condition = "singular-shift"


class SingularLevelOperator(NumericalFailure):
    """The reference's level operator has a kernel, so one time level
    does not fix the next and the stacked system cannot be marched."""

    condition = "singular-level-operator"


@dataclass
class Gate:
    """One decision of a solve: it passes when defect <= limit, so a NaN
    defect fails; a failing gate raises ``error`` with ``condition`` and
    ``message``, which a passing gate may leave empty."""

    name: str
    condition: str
    message: str
    defect: float
    limit: float
    error: type[SingwaveError]

    @property
    def passed(self) -> bool:
        return bool(self.defect <= self.limit)


def admit(gates: list[Gate], *new: Gate) -> None:
    """Append the new gates to ``gates``, then raise the error of the
    first of them that fails."""
    gates.extend(new)
    for gate in new:
        if not gate.passed:
            raise gate.error(gate.message, condition=gate.condition)
