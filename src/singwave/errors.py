"""Exception taxonomy.

Every error carries a stable ``condition`` slug (used by reports and the CLI
to name the failure) and an ``exit_code`` consumed by the command line front
end: 2 for model rejection, 3 for input problems, 4 for numerical failure.
"""


class SingwaveError(Exception):
    """Base class for all library errors."""

    condition = "error"
    exit_code = 4

    def __init__(self, message: str = "", condition: str | None = None):
        super().__init__(message)
        if condition is not None:
            self.condition = condition


class InputError(SingwaveError):
    """Malformed or unusable input data."""

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


class DegenerateBoundary(ModelRejection):
    condition = "degenerate-boundary-scalars"


class BoundaryExtensionInconsistent(ModelRejection):
    condition = "boundary-extension-inconsistent"


class InconsistentSystem(ModelRejection):
    condition = "inconsistent-discrete-system"


class NumericalFailure(SingwaveError):
    """A numerical routine could not deliver a trustworthy result."""

    condition = "numerical-failure"
    exit_code = 4


class EigendecompositionFailure(NumericalFailure):
    condition = "eigendecomposition-failure"


class DefectiveMatrix(NumericalFailure):
    condition = "defective-matrix"


class DomainError(NumericalFailure):
    condition = "function-domain-error"


class NoRegularizingGamma(NumericalFailure):
    condition = "no-regularizing-gamma"


class SingularShift(NumericalFailure):
    condition = "singular-shift"
