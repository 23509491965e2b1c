"""Exception types raised across the package.

Every failure a caller can act on gets its own class so that library users
(and the CLI) can branch on the failure mode instead of parsing messages.
"""

from __future__ import annotations


class MuntzQuadError(Exception):
    """Base class for all package errors."""


class SingularMatrixError(MuntzQuadError):
    """A dense linear solve met a singular or non-finite system."""


class InvalidOrderError(MuntzQuadError, ValueError):
    """A quadrature order that is not an integer >= 1 was requested."""


class InvalidBetaError(MuntzQuadError, ValueError):
    """A power-weight exponent that is not a real number > -1 was requested."""


class DomainError(MuntzQuadError, ValueError):
    """An argument fell outside the domain of the function."""


class InadmissibleSequenceError(MuntzQuadError, ValueError):
    """The exponent sequence is not admissible for the given weight."""


class LengthMismatchError(MuntzQuadError, ValueError):
    """Two paired inputs have inconsistent lengths."""


class NewtonDivergedError(MuntzQuadError):
    """Newton iteration failed to converge within its budget."""

    def __init__(self, message: str, iterations: int = 0, residual: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class ContinuationFailedError(MuntzQuadError):
    """The continuation step size shrank below ``solver._STEP_MIN``.

    Carries the last successfully solved blend parameter and iterate so a
    caller can inspect how far the path was tracked.  Past ``alpha = 0``
    (the exact Gauss-Jacobi start) the iterate was solved only to
    ``solver._WALK_TOLERANCE``, on the evaluator's walk tier
    ``muntz._WALK`` (see ``solver.compute_rule``).
    """

    def __init__(self, message: str, alpha: float, nodes=None, weights=None):
        super().__init__(message)
        self.alpha = alpha
        self.nodes = nodes
        self.weights = weights


class NonFiniteSampleError(MuntzQuadError):
    """An integrand returned a non-finite value at a quadrature node."""
