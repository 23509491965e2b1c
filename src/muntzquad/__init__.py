"""Generalized Gaussian quadrature for Muntz systems with power weights.

Builds (N+1)-point rules on (0, 1) that integrate 2N+2 prescribed power
functions ``x**lam_k`` (repeats bring in log factors) exactly against the
weight ``x**beta``, by homotopy continuation from classical Gauss-Jacobi
with a Newton corrector on the orthogonal-basis moment equations.
"""

__version__ = "0.1.0"

from .classical import ClassicalRule, gauss_jacobi, gauss_legendre
from .errors import (
    ContinuationFailedError,
    DomainError,
    InadmissibleSequenceError,
    InvalidBetaError,
    InvalidOrderError,
    LengthMismatchError,
    MuntzQuadError,
    NewtonDivergedError,
    NonFiniteSampleError,
    SingularMatrixError,
)
from .muntz import eval_all, moments, scaled_derivatives
from .solver import (
    QuadratureRule,
    RuleDiagnostics,
    RuleSpec,
    apply_rule,
    assemble,
    compute_rule,
    continuation_exponents,
    newton_solve,
    transform_to_unit_weight,
)

__all__ = [
    "__version__",
    "ClassicalRule",
    "ContinuationFailedError",
    "DomainError",
    "InadmissibleSequenceError",
    "InvalidBetaError",
    "InvalidOrderError",
    "LengthMismatchError",
    "MuntzQuadError",
    "NewtonDivergedError",
    "NonFiniteSampleError",
    "QuadratureRule",
    "RuleDiagnostics",
    "RuleSpec",
    "SingularMatrixError",
    "apply_rule",
    "assemble",
    "compute_rule",
    "continuation_exponents",
    "eval_all",
    "gauss_jacobi",
    "gauss_legendre",
    "moments",
    "newton_solve",
    "scaled_derivatives",
    "transform_to_unit_weight",
]
