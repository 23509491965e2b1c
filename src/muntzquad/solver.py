"""Construction of generalized Gaussian rules for Muntz systems.

The rule for exponents ``lam_0..lam_{2N+1}`` and weight ``x**beta`` is the
root of the moment-matching map

    F(z)_n = sum_k L_n^beta(x_k) w_k - m_n,      n = 0..2N+1,

where ``z`` stacks the N+1 nodes and weights.  Newton's equation is solved
in a rescaled variable: the Jacobian columns are premultiplied by powers of
``x`` and ``w`` so that nothing blows up when nodes crowd the origin, which
is the whole point of these rules.  Every Newton step is taken in full
unless a feasibility safeguard halves it: one that would push a node out of
(0, 1), cross two nodes, or kill a weight.

A Newton solve alone only converges locally, so the driver walks a homotopy
from the classical Gauss-Jacobi rule: the exponents are blended with the
integers, ``alpha*lam_n + (1-alpha)*n``, and ``alpha`` steps from 0 to 1,
re-solving at each stage from a prediction: the quadratic through the last
three accepted rules, extrapolated in ``log x`` and ``log w`` (Allgower &
Georg, *Introduction to Numerical Continuation Methods*, 2003, ch. 6).  At
``alpha = 0`` the basis degenerates to polynomials and the Gauss-Jacobi
rule is already exact, so the path starts at a known root.  The step size
follows the observed Newton contraction (Deuflhard, *Newton Methods for
Nonlinear Problems*, 2004): a solve whose second correction is at least
twice its first is dropped at once, and the ratio of the first two
corrections of an accepted solve sizes the next step.  The corrector is inexact by design: a
rule with ``alpha < 1`` only seeds the next step, so those solves stop at
a loose tolerance on a coarse contour evaluator, and only the
``alpha = 1`` solve and the polish run at full accuracy.

The nodes are invariant under ``(lam, beta) -> (lam + c, beta - c)`` and
the weights scale by ``x**c``, so the walk and the polish always run on the
canonical shift ``c = -min(lam)``, whose smallest exponent is 0.  There
every pair sums to more than ``-1 - beta``, so no numerator factor of the
basis kernel cancels one of its poles anywhere along the homotopy.  Every
linear solve is one LAPACK call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classical import gauss_jacobi
from .errors import (
    ContinuationFailedError,
    DomainError,
    LengthMismatchError,
    NewtonDivergedError,
    NonFiniteSampleError,
    SingularMatrixError,
)
from . import refine
from .muntz import (
    _basis_batch,
    ensure_admissible,
    moments,
    scaled_derivatives,
)


@dataclass(frozen=True)
class RuleSpec:
    """Exponent sequence (even length, order as given) and weight exponent."""

    exponents: np.ndarray
    beta: float = 0.0

    def __post_init__(self):
        lam = ensure_admissible(self.exponents, self.beta)
        if lam.size % 2 != 0 or lam.size < 2:
            raise LengthMismatchError(f"need an even number (>= 2) of exponents, got {lam.size}")
        lam = lam.copy()
        lam.setflags(write=False)
        object.__setattr__(self, "exponents", lam)
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def n_nodes(self) -> int:
        return self.exponents.size // 2


@dataclass(frozen=True)
class RuleDiagnostics:
    """What the build of one rule cost.

    ``residual`` is the final moment residual of the shifted problem the
    walk solves (see ``compute_rule``), not of the caller's weight.
    ``continuation_steps`` counts accepted homotopy steps and
    ``rejected_steps`` the walk solves that diverged and were retried with
    a shorter step.  ``newton_iterations`` counts the iterations of the
    accepted solves plus the polish only, not those of rejected solves.
    """

    residual: float
    continuation_steps: int
    newton_iterations: int
    rejected_steps: int


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes in (0, 1), positive weights, and the spec they are exact for.

    Raises ``DomainError`` when the nodes and weights break that
    feasibility, as a weight that underflows to 0 does.
    """

    nodes: np.ndarray
    weights: np.ndarray
    spec: RuleSpec
    diagnostics: RuleDiagnostics

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float).copy()
        weights = np.asarray(self.weights, dtype=float).copy()
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise LengthMismatchError("nodes and weights must be 1-D arrays of equal length")
        if not _feasible(nodes, weights):
            raise DomainError(
                "rule violates feasibility: nodes ascending in (0,1), weights > 0 "
                "(a node or weight may have under- or overflowed in double precision)"
            )
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class NewtonResult:
    """A converged Newton solve.

    ``residual_history`` holds the residual at the start and after every
    iteration.  ``contraction`` is the ratio of the second Newton
    correction to the first, each measured as the largest relative node or
    weight change; it is 0 when the solve needed fewer than two
    corrections.  ``jacobian`` is the rescaled Jacobian ``assemble``
    returned at the returned iterate.
    """

    nodes: np.ndarray
    weights: np.ndarray
    iterations: int
    residual: float
    residual_history: tuple
    contraction: float
    jacobian: np.ndarray


def continuation_exponents(exponents, alpha: float) -> np.ndarray:
    """Blend toward the integer ladder: ``alpha*lam_n + (1-alpha)*n``."""
    lam = np.atleast_1d(np.asarray(exponents, dtype=float))
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * lam + (1.0 - alpha) * np.arange(lam.size, dtype=float)


def _feasible(nodes, weights) -> bool:
    return bool(
        np.all(np.isfinite(nodes))
        and np.all(np.isfinite(weights))
        and nodes.size > 0
        and nodes[0] > 0.0
        and nodes[-1] < 1.0
        and np.all(np.diff(nodes) > 0.0)
        and np.all(weights > 0.0)
    )


def _solve(matrix, rhs) -> np.ndarray:
    """``np.linalg.solve``; a singular or non-finite system raises ``SingularMatrixError``."""
    if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(rhs))):
        raise SingularMatrixError("matrix and rhs entries must be finite")
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc


def _correction_size(x, w, beta, p_scaled) -> float:
    """Size of a Newton correction, ``max(|dx / x|, |dw / w|)``, from the
    rescaled solution ``p_scaled``: ``dx / x`` and ``dw / w`` share the scale
    ``x**(beta/2) / w``."""
    n = x.size
    scale = x ** (0.5 * beta) / w
    return float(np.max(scale * np.maximum(np.abs(p_scaled[:n]), np.abs(p_scaled[n:]))))


def _predict(path, alpha_next):
    """Extrapolate the accepted path to the next blend value.

    ``path`` holds the last accepted ``(alpha, nodes, weights)`` points,
    oldest first, at most three; the last one is the current iterate.  Nodes
    near the origin decay roughly exponentially in alpha, so the
    extrapolation runs on ``log x`` and ``log w``, which also preserves
    positivity.  It is the polynomial through every point, in Newton
    divided-difference form: the secant through the last two points plus,
    once three exist (numbered 0, 1, 2 from the oldest), the curvature term

        (alpha_next - alpha_2)(alpha_next - alpha_1) f[alpha_2, alpha_1, alpha_0],

    so its miss falls from O(step**2) to O(step**3).  Falls back to the
    current iterate when there is no earlier point or the prediction
    leaves the feasible region.
    """
    alpha, nodes, weights = path[-1]
    if len(path) == 1:
        return nodes, weights
    alpha_prev = path[-2][0]
    ratio = (alpha_next - alpha) / (alpha - alpha_prev)

    def extrapolate(column):
        f2, f1 = np.log(path[-1][column]), np.log(path[-2][column])
        log_pred = f2 + ratio * (f2 - f1)
        if len(path) == 3:
            alpha_first, f0 = path[0][0], np.log(path[0][column])
            slope, slope_prev = (f2 - f1) / (alpha - alpha_prev), (f1 - f0) / (alpha_prev - alpha_first)
            curvature = (slope - slope_prev) / (alpha - alpha_first)
            log_pred = log_pred + (alpha_next - alpha) * (alpha_next - alpha_prev) * curvature
        return np.exp(log_pred)

    x_pred, w_pred = extrapolate(1), extrapolate(2)
    if _feasible(x_pred, w_pred):
        return x_pred, w_pred
    return nodes, weights


def assemble(nodes, weights, exponents, beta, moment_vector, walk: bool = False):
    """Residual vector F and rescaled Jacobian for the current iterate.

    The basis comes from the evaluator's walk tier if ``walk`` and from its
    full tier otherwise.  One batched basis sweep per call serves every row:
    the value matrix gives both F and the right Jacobian block, and the
    scaled-derivative recurrence turns the same values into the left block

        [ x L' - (beta/2) L  |  L ].

    The true Jacobian is this matrix times positive diagonal scalings, so
    solving with the rescaled one loses nothing and stays accurate for
    nodes near 0.

    Everything here runs in double precision; the final polish takes its
    residual from ``refine.exact_residual`` and reuses the Jacobian the
    ``alpha = 1`` solve assembled at its result, since Jacobian errors only
    perturb the Newton direction.
    """
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    lam = np.asarray(exponents, dtype=float)
    moment_vector = np.asarray(moment_vector, dtype=float)
    sizes = {lam.size, moment_vector.size, 2 * nodes.size, 2 * weights.size}
    if nodes.size == 0 or len(sizes) != 1:
        raise LengthMismatchError(
            "need len(exponents) = len(moments) = 2 * len(nodes) = 2 * len(weights) > 0"
        )
    if not _feasible(nodes, weights):
        raise DomainError("iterate is infeasible: need ascending nodes in (0,1) and positive weights")

    beta = float(beta)
    shifted = lam + 0.5 * beta
    basis = _basis_batch(shifted, nodes, walk)
    x_derivative = scaled_derivatives(basis, lam, beta)

    residual = basis @ (nodes ** (-0.5 * beta) * weights) - moment_vector
    jacobian = np.hstack([x_derivative - 0.5 * beta * basis, basis])
    return residual, jacobian


# Residual tolerance of a Newton solve on the evaluator's full tier, relative
# to max(1, max|moment|).
_TOLERANCE = 1e-14

# A rule with alpha < 1 only seeds the next homotopy step, so its Newton
# solve runs on the evaluator's walk tier (``muntz._WALK``: a third of the
# full tier's quadrature orders, and theta from the search grid alone) and
# stops at this tolerance.  On that tier Newton converges only linearly, and
# the next step's predictor misses by far more anyway.
_WALK_TOLERANCE = 1e-5

# A Newton solve gives up after this many iterations, or once one step has
# been halved this many times and is still infeasible.
_MAX_ITERATIONS = 50
_MAX_STEP_HALVINGS = 30

# When the residual has not fallen below 0.9 times the best one for this many
# iterations in a row, the best iterate is accepted if it sits within
# ``_STALL_FACTOR`` of the target; otherwise the solve is declared divergent.
# The evaluator's noise floor rises when continuation paths carry
# near-coincident exponents, so the stall window is generous.
_STALL_ITERATIONS = 3
_STALL_FACTOR = 50.0

# A Newton solve is dropped once a correction is this many times the one
# before.  Not 1: converging solves have grown a correction by up to 1.35x.
_DIVERGENCE_RATIO = 2.0

# The walk's first step and the step below which it fails.  A diverged solve
# is retried with the step times ``_SHRINK``; after an accepted one the step
# is scaled so that its solve's first two corrections would contract by
# ``_CONTRACTION_TARGET``, within ``[_SHRINK, _GROWTH]``.
_STEP_INITIAL = 0.1
_STEP_MIN = 1e-4
_SHRINK = 0.5
_GROWTH = 2.0
_CONTRACTION_TARGET = 0.25

# The polish takes at most this many exact-residual Newton steps.
_POLISH_ITERATIONS = 4


def newton_solve(nodes, weights, exponents, beta, moment_vector, walk: bool = False) -> NewtonResult:
    """Newton iteration on the moment-matching map.

    Every ``assemble`` call uses the evaluator's walk tier if ``walk`` and
    its full tier otherwise; the residual target is ``_WALK_TOLERANCE``
    (1e-5) or ``_TOLERANCE`` (1e-14) to match, times ``max(1, max|moment|)``.
    The rescaled Newton equation is solved directly; the physical update
    directions are recovered through the same diagonal scalings,

        dx = x**(beta/2+1) / w * p_nodes,     dw = x**(beta/2) * p_weights,

    and applied in full.  Any step that would leave the feasible region is
    halved up to ``_MAX_STEP_HALVINGS`` times before the iteration is
    declared divergent.  Raises ``NewtonDivergedError`` when the iteration
    budget or the safeguard is exhausted, when the residual stalls short of
    ``_STALL_FACTOR`` times the target, and as soon as a correction
    (``_correction_size``) is at least ``_DIVERGENCE_RATIO`` times the one
    before: a converging iteration shrinks its corrections.
    """
    x = np.array(nodes, dtype=float, copy=True)
    w = np.array(weights, dtype=float, copy=True)
    m = np.asarray(moment_vector, dtype=float)
    n = x.size
    residual, jacobian = assemble(x, w, exponents, beta, m, walk)
    target = (_WALK_TOLERANCE if walk else _TOLERANCE) * max(1.0, float(np.abs(m).max()))
    res_norm = float(np.abs(residual).max())
    history = [res_norm]
    if res_norm <= target:
        return NewtonResult(x, w, 0, res_norm, tuple(history), 0.0, jacobian)

    best = (x.copy(), w.copy(), res_norm, jacobian)
    stalled = 0
    beta = float(beta)
    correction = None
    contraction = 0.0
    for iteration in range(1, _MAX_ITERATIONS + 1):
        try:
            p_scaled = _solve(jacobian, -residual)
        except SingularMatrixError as exc:
            raise NewtonDivergedError(
                f"Jacobian became singular: {exc}", iterations=iteration, residual=res_norm
            ) from exc
        size = _correction_size(x, w, beta, p_scaled)
        if correction is not None:
            if size >= _DIVERGENCE_RATIO * correction:
                raise NewtonDivergedError(
                    f"correction grew from {correction:.3e} to {size:.3e}",
                    iterations=iteration,
                    residual=res_norm,
                )
            if iteration == 2:
                contraction = size / correction
        correction = size
        dx = x ** (0.5 * beta + 1.0) / w * p_scaled[:n]
        dw = x ** (0.5 * beta) * p_scaled[n:]

        step_scale = 1.0
        halvings = 0
        while True:
            x_trial = x + step_scale * dx
            w_trial = w + step_scale * dw
            if _feasible(x_trial, w_trial):
                break
            halvings += 1
            if halvings > _MAX_STEP_HALVINGS:
                raise NewtonDivergedError(
                    "feasibility safeguard exhausted", iterations=iteration, residual=res_norm
                )
            step_scale *= 0.5

        x, w = x_trial, w_trial
        residual, jacobian = assemble(x, w, exponents, beta, m, walk)
        res_norm = float(np.abs(residual).max())
        if not np.isfinite(res_norm):
            raise NewtonDivergedError("residual became non-finite", iterations=iteration, residual=res_norm)
        history.append(res_norm)
        if res_norm <= target:
            return NewtonResult(x, w, iteration, res_norm, tuple(history), contraction, jacobian)

        if res_norm < 0.9 * best[2]:
            best = (x.copy(), w.copy(), res_norm, jacobian)
            stalled = 0
        else:
            stalled += 1
            if stalled >= _STALL_ITERATIONS:
                if best[2] <= _STALL_FACTOR * target:
                    return NewtonResult(*best[:2], iteration, best[2], tuple(history), contraction, best[3])
                raise NewtonDivergedError(
                    f"stalled at residual {best[2]:.3e} (target {target:.3e})",
                    iterations=iteration,
                    residual=best[2],
                )

    raise NewtonDivergedError(
        f"no convergence in {_MAX_ITERATIONS} iterations (residual {res_norm:.3e})",
        iterations=_MAX_ITERATIONS,
        residual=res_norm,
    )


def compute_rule(spec: RuleSpec) -> QuadratureRule:
    """Build the generalized Gaussian rule for ``spec`` by homotopy walking.

    Starts from the classical Gauss-Jacobi rule (the exact root for the
    integer-exponent blend), then advances the blend parameter with
    adaptive steps, and always lands the final step exactly on 1.  Each
    solve starts from ``_predict``'s extrapolation of the last three
    accepted rules: the first from the Gauss-Jacobi rule itself, the second
    from the secant.  A
    diverged Newton solve is retried with half the step; after an accepted
    one the step is scaled by ``sqrt(1/4 / contraction)`` within
    ``[1/2, 2]`` (no growth right after a rejection), so that the next
    solve's corrections contract by about 1/4.  Every step with
    ``alpha < 1`` is solved to ``_WALK_TOLERANCE`` (1e-5) on the evaluator's
    walk tier, which has a third of the full tier's panel and Laguerre orders
    and takes theta from the search grid without zooming; the ``alpha = 1``
    solve runs to ``_TOLERANCE`` (1e-14) on the full tier, and the polish
    reuses that solve's last Jacobian.  Walk and polish run on the
    canonically shifted spec; the weights return to ``x**beta`` at the end,
    and ``rule.spec`` is ``spec``.  Raises ``ContinuationFailedError`` if the step falls below
    ``_STEP_MIN``; it carries the last good state in the caller's weight,
    solved only to the walk tolerance.  Raises ``DomainError`` if a weight
    under- or overflows in doubles when the factor ``x**c`` maps it back to
    the caller's weight.
    """
    # The rule only depends on the exponent set, and a sorted sequence keeps
    # the blended tracks alpha*lam_n + (1-alpha)*n from crossing mid-walk
    # (crossings create near-coincident exponents whose basis is nearly
    # dependent, stalling Newton); walk the sorted sequence internally,
    # shifted by c so that its smallest exponent is 0.
    lam = np.sort(spec.exponents)
    c = -lam[0]
    walk_spec = RuleSpec(lam + c, spec.beta - c)

    start = gauss_jacobi(spec.n_nodes, walk_spec.beta)
    x = start.nodes.copy()
    w = start.weights.copy()

    alpha = 0.0
    step = _STEP_INITIAL
    steps_taken = 0
    rejected_steps = 0
    rejected = False  # the last solve diverged
    total_iterations = 0
    res_norm = 0.0
    path = [(alpha, x, w)]  # the last three accepted (alpha, nodes, weights), oldest first

    while alpha < 1.0:
        alpha_next = min(alpha + step, 1.0)
        lam_alpha = continuation_exponents(walk_spec.exponents, alpha_next)
        m_alpha = moments(lam_alpha, walk_spec.beta)
        x0, w0 = _predict(path, alpha_next)
        try:
            result = newton_solve(x0, w0, lam_alpha, walk_spec.beta, m_alpha, alpha_next < 1.0)
        except NewtonDivergedError:
            rejected_steps += 1
            rejected = True
            step *= _SHRINK
            if step < _STEP_MIN:
                raise ContinuationFailedError(
                    f"step size fell below {_STEP_MIN} at alpha = {alpha}",
                    alpha=alpha,
                    nodes=x,
                    weights=w * x**c,
                )
            continue
        x, w = result.nodes, result.weights
        alpha = alpha_next
        path = (path + [(alpha, x, w)])[-3:]
        steps_taken += 1
        total_iterations += result.iterations
        res_norm = result.residual
        # the first contraction ratio follows the predictor's miss: O(step**2)
        # for the secant of the second step, O(step**3) once three path points
        # exist; a cube-root rule for the latter saved no assemble calls, so
        # the square root stays
        factor = math.sqrt(_CONTRACTION_TARGET / result.contraction) if result.contraction > 0 else math.inf
        step *= min(1.0 if rejected else _GROWTH, max(_SHRINK, factor))
        rejected = False

    x, w, res_norm, polish_iters = _polish(x, w, walk_spec, result.jacobian, res_norm)

    return QuadratureRule(
        nodes=x,
        weights=w * x**c,
        spec=spec,
        diagnostics=RuleDiagnostics(
            residual=res_norm,
            continuation_steps=steps_taken,
            newton_iterations=total_iterations + polish_iters,
            rejected_steps=rejected_steps,
        ),
    )


def _polish(x, w, spec: RuleSpec, jacobian: np.ndarray, res_norm: float):
    """Squeeze out the numerical noise floor at the solved rule.

    The residual at a near-converged rule lives in a near-null Jacobian
    direction: ulp-level evaluation systematics park the smallest weight up
    to ~1e-11 relative away from the true rule.  The last Newton steps
    therefore use the bias-free residual of ``refine.exact_residual``, the
    arbitrary-precision pole expansion, which covers every exponent
    multiplicity; its exponent-only table is built once per call.  The
    steps are simplified Newton: every one solves against ``jacobian``, the
    rescaled Jacobian the ``alpha = 1`` solve assembled at ``(x, w)`` on the
    full tier, in ordinary arithmetic.  Any trouble aborts polishing and
    keeps the last accepted iterate.

    Progress is judged by the size of the Newton correction, relative to
    each node and weight, not by the residual: along that near-null
    direction an iterate 1e-11 off can show a smaller residual than the
    true rule rounded to doubles.  Steps continue while each correction is
    under a quarter of the one before; the result is the last iterate that
    passed, with its exact residual; at most ``_POLISH_ITERATIONS`` steps
    are taken.
    """
    beta = spec.beta
    expansion = refine.pole_expansion(spec.exponents, beta)
    n = x.size
    best = (x, w, res_norm)
    previous = math.inf
    iterations = 0
    for _ in range(_POLISH_ITERATIONS):
        residual = refine.exact_residual(x, w, expansion)
        try:
            p_scaled = _solve(jacobian, -residual)
        except SingularMatrixError:
            break
        correction = _correction_size(x, w, beta, p_scaled)
        if not correction < 0.25 * previous:
            break  # corrections stopped contracting; the floor is reached
        best = (x, w, float(np.abs(residual).max()))
        previous = correction
        scale = x ** (0.5 * beta) / w
        x_trial = x + x * scale * p_scaled[:n]
        w_trial = w + w * scale * p_scaled[n:]
        if not _feasible(x_trial, w_trial):
            break
        iterations += 1
        x, w = x_trial, w_trial
    return best[0], best[1], best[2], iterations


def transform_to_unit_weight(rule: QuadratureRule) -> QuadratureRule:
    """Map a weight ``x**beta`` rule to a unit-weight rule.

    With ``kappa = 1/(beta+1)`` the substitution ``x -> x**kappa`` sends the
    rule to nodes ``x**(1/kappa)`` and weights ``w/kappa``, exact for the
    Muntz space of the scaled exponents ``kappa * lam`` under weight 1.
    """
    beta = rule.spec.beta
    kappa = 1.0 / (beta + 1.0)
    return QuadratureRule(
        nodes=rule.nodes ** (1.0 / kappa),
        weights=rule.weights / kappa,
        spec=RuleSpec(exponents=kappa * rule.spec.exponents, beta=0.0),
        diagnostics=rule.diagnostics,
    )


def apply_rule(rule: QuadratureRule, f: Callable[[float], float]) -> float:
    """Weighted sum ``sum_k f(x_k) w_k``; rejects non-finite samples."""
    samples = np.array([f(float(x)) for x in rule.nodes], dtype=float)
    if not np.all(np.isfinite(samples)):
        bad = rule.nodes[~np.isfinite(samples)]
        raise NonFiniteSampleError(f"integrand not finite at nodes {bad}")
    return float(samples @ rule.weights)
