"""Stable solves of coupled two-level difference systems whose
time-coefficient matrix is singular, via generalized inverses and a
discrete eigenfunction basis."""

from .errors import (
    SingwaveError,
    InputError,
    ModelRejection,
    NumericalFailure,
    ParseError,
    ShapeError,
    NonFiniteValue,
    SizeCapExceeded,
    RankFull,
    ConsistencyViolation,
    RhoDegenerate,
    DegenerateBoundary,
    BoundaryExtensionInconsistent,
    InconsistentSystem,
    EigendecompositionFailure,
    DefectiveMatrix,
    DomainError,
    NoRegularizingGamma,
    SingularShift,
)
from .matrix_core import (
    one_norm,
    rank_and_kernel,
    generalized_inverse,
    mitra_solve,
    MitraSolution,
    core_nilpotent,
    CoreNilpotentDecomposition,
    drazin_inverse,
    matrix_function,
    kernel_invariance_defect,
)
from .sturm_liouville import (
    SLProblem,
    EigenPair,
    assemble_pencil,
    solve_psd,
    orthogonality_defect,
    expand,
    synthesize,
    extend_eigenfunction,
    boundary_scalars,
)
from .pencil import (
    PencilData,
    PropagatorPair,
    find_gamma,
    build_pencil,
    build_propagators,
    rho_condition_violations,
)
from .solver import (
    Tolerances,
    GridParams,
    ProblemSpec,
    BoundaryMatrix,
    build_boundary_matrix,
    ConsistencyReport,
    check_consistency,
    ModeCoefficients,
    solve_mode_coefficients,
    DiscreteSolution,
    assemble_solution,
    StabilityReport,
    stability_report,
    solve_problem,
)
from .verify import (
    ResidualReport,
    interior_residual,
    boundary_residual,
    initial_residual,
    residual_report,
    ReferenceSolution,
    brute_force_reference,
    reference_deviation,
)
from . import fixtures

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
