"""The public surface: its names, the settings it does not take, and the
typed errors its entry points raise on bad input."""

import inspect

import numpy as np
import pytest

import muntzquad
from muntzquad import (
    DomainError,
    InadmissibleSequenceError,
    InvalidBetaError,
    InvalidOrderError,
    LengthMismatchError,
    QuadratureRule,
    RuleDiagnostics,
    RuleSpec,
    continuation_exponents,
    eval_all,
    gauss_jacobi,
    gauss_laguerre,
    gauss_legendre,
    moments,
    newton_solve,
)

PUBLIC_NAMES = [
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
    "__version__",
    "apply_rule",
    "assemble",
    "compute_rule",
    "continuation_exponents",
    "eval_all",
    "gauss_jacobi",
    "gauss_laguerre",
    "gauss_legendre",
    "moments",
    "newton_solve",
    "scaled_derivatives",
    "transform_to_unit_weight",
]

# Parameter names of the evaluator and solver settings that are now fixed.
SETTINGS = {"config", "tolerance", "eval_config", "newton", "continuation"}


def test_public_names():
    assert sorted(muntzquad.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", [name for name in PUBLIC_NAMES if callable(getattr(muntzquad, name))])
def test_no_public_callable_takes_a_setting(name):
    try:
        parameters = inspect.signature(getattr(muntzquad, name)).parameters
    except ValueError:  # a builtin without a signature takes no setting
        return
    assert not SETTINGS & set(parameters)


FOUR = np.array([0.0, 1.0, 2.0, 3.0])
DIAGNOSTICS = RuleDiagnostics(residual=0.0, continuation_steps=0, newton_iterations=0, rejected_steps=0)


@pytest.mark.parametrize("call, error", [
    (lambda: RuleSpec(np.array([np.nan, 1.0]), 0.0), InadmissibleSequenceError),
    (lambda: eval_all([np.inf, 1.0], 0.5), InadmissibleSequenceError),
    (lambda: eval_all([-2.0, 1.0], 0.5), InadmissibleSequenceError),
    (lambda: RuleSpec(np.array([]), 0.0), LengthMismatchError),
    (lambda: moments(np.ones((2, 2)), 0.0), LengthMismatchError),
    (lambda: newton_solve([0.5], [0.5], FOUR, 0.0, moments(FOUR, 0.0)), LengthMismatchError),
    (lambda: gauss_legendre(2.5), InvalidOrderError),
    (lambda: gauss_laguerre(2.5), InvalidOrderError),
    (lambda: gauss_jacobi(2.5, 0.0), InvalidOrderError),
    (lambda: newton_solve([], [], [], 0.0, []), LengthMismatchError),
    (lambda: newton_solve([0.5], [0.5, 0.3], [0.0, 1.0], 0.0, [1.0, 0.0]), LengthMismatchError),
    (lambda: QuadratureRule([0.5], [0.5, 0.3], RuleSpec(FOUR), DIAGNOSTICS), LengthMismatchError),
    (lambda: continuation_exponents(FOUR, 1.5), DomainError),
    (lambda: continuation_exponents(FOUR, np.nan), DomainError),
    (lambda: RuleSpec(FOUR, None), InadmissibleSequenceError),
    (lambda: moments(FOUR, "a"), InadmissibleSequenceError),
    (lambda: eval_all(FOUR, 0.5, "a"), InadmissibleSequenceError),
    (lambda: gauss_jacobi(3, "x"), InvalidBetaError),
], ids=["nan-exponent", "inf-exponent", "unit-weight-divergent", "empty-sequence", "2d-sequence",
        "short-rule", "legendre-order", "laguerre-order", "jacobi-order", "empty-rule",
        "weights-longer-than-nodes", "rule-weights-longer-than-nodes", "alpha-above-one", "alpha-nan",
        "rule-spec-beta-none", "moments-beta-string", "eval-all-beta-string", "jacobi-beta-string"])
def test_bad_input_raises_a_typed_value_error(call, error):
    with pytest.raises(error):
        call()
    assert issubclass(error, ValueError)
