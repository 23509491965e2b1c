"""Construction of generalized Gaussian rules for Muntz systems.

The rule for exponents ``lam_0..lam_{2N+1}`` and weight ``x**beta`` is the
root of the moment-matching map

    F(z)_n = sum_k L_n^beta(x_k) w_k - m_n,      n = 0..2N+1,

where ``z`` stacks the N+1 nodes and weights.  Newton's equation is solved
in a rescaled variable: the Jacobian columns are premultiplied by powers of
``x`` and ``w`` so that nothing blows up when nodes crowd the origin, which
is the whole point of these rules.  Every Newton step is taken in full
unless a feasibility safeguard halves it: one that would push a node out of
(0, 1), cross two nodes, or kill a weight.  A solve either returns an iterate
whose residual meets its target or raises ``NewtonDivergedError``.  A solve
of the walk below has a second exit: once a correction taken in full is
small, the iterate it reaches is returned without evaluating the residual
there, since that correction bounds it (Deuflhard's error-oriented
termination).  Nothing else short of the target is accepted.

A Newton solve alone only converges locally, so the driver walks a homotopy
from the classical Gauss-Jacobi rule: the exponents are blended with the
integers, ``alpha*lam_n + (1-alpha)*n``, and ``alpha`` steps from 0 to 1,
re-solving at each stage from a prediction: the quadratic through the last
three accepted rules, extrapolated in ``log x`` and ``log w`` (Allgower &
Georg, *Introduction to Numerical Continuation Methods*, 2003, ch. 6).  At
``alpha = 0`` the basis degenerates to polynomials and the Gauss-Jacobi rule
is the root; the walk starts from it unrefined (Golub & Welsch, *Math.
Comp.* 23, 1969), since the first solve is loose anyway.  The step size
follows the observed Newton contraction (Deuflhard, *Newton Methods for
Nonlinear Problems*, 2004): a solve whose second correction is at least
twice its first is dropped at once, and the ratio of the first two
corrections of an accepted solve sizes the next step.  The corrector is
inexact by design: every step, ``alpha = 1`` included, stops at a loose
tolerance, since a rule with ``alpha < 1`` only seeds the next step.  The
walk's ``alpha = 1`` rule then seeds one tighter solve on the same contour
evaluator, the landing, and the polish reuses its Jacobian.
The landing runs once: a diverged walk solve is retried with a shorter
step, but a diverged landing ends the build.

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

from .classical import _jacobi_start
from .errors import (
    ContinuationFailedError,
    DomainError,
    LengthMismatchError,
    NewtonDivergedError,
    NonFiniteSampleError,
    SingularMatrixError,
    _as_real,
)
from . import refine
from .muntz import (
    _as_beta,
    _basis_batch,
    ensure_admissible,
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

    ``residual`` is the exact moment residual (``refine.exact_residual``) at
    the returned rule, in the shifted problem the walk solves (see
    ``compute_rule``), not in the caller's weight.
    ``continuation_steps`` counts accepted homotopy steps and
    ``rejected_steps`` the steps retried with a shorter step because their
    walk solve diverged; the landing is never retried.
    ``newton_iterations`` counts the iterations of the accepted steps' walk
    solves, the landing and the polish only, not those of rejected steps.
    ``floor_ratio`` is the largest ratio of a row's exact residual to its
    rounding floor, in the same shifted problem (see ``_floor_ratio``); a
    returned rule has it at most ``_FLOOR_RATIO_BOUND``.
    """

    residual: float
    continuation_steps: int
    newton_iterations: int
    rejected_steps: int
    floor_ratio: float


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
    assembled iteration.  ``contraction`` is the ratio of the second Newton
    correction to the first, each measured as the largest relative node or
    weight change; it is 0 when the solve needed fewer than two
    corrections.  ``residual`` and ``jacobian`` are the residual norm and the
    rescaled Jacobian ``assemble`` returned at the last assembled iterate.
    That is the returned one, and ``residual`` meets the solve's target,
    unless a walk solve returned on a small correction (see
    ``newton_solve``): then they belong to the iterate one correction before
    the returned one, ``residual_history`` ends there too, and ``assemble``
    was called ``iterations`` times instead of ``iterations + 1``.
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
    alpha = _as_real(alpha, DomainError, "alpha")
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
        with np.errstate(over="ignore"):  # beyond log_pred ~ 709: inf, which _feasible rejects
            return np.exp(log_pred)

    x_pred, w_pred = extrapolate(1), extrapolate(2)
    if _feasible(x_pred, w_pred):
        return x_pred, w_pred
    return nodes, weights


def assemble(nodes, weights, exponents, beta, moment_vector):
    """Residual vector F and rescaled Jacobian for the current iterate.

    The basis comes from the hyperbola evaluator, which takes each node's
    contour from that node alone, so the map is one smooth function of the
    iterate.  One batched basis sweep per call serves every row: the value
    matrix gives both F and the right Jacobian block, and the
    scaled-derivative recurrence turns the same values into the left block

        [ x L' - (beta/2) L  |  L ].

    The true Jacobian is this matrix times positive diagonal scalings, so
    solving with the rescaled one loses nothing and stays accurate for
    nodes near 0.

    Everything here runs in double precision; the final polish takes its
    residual from ``refine.exact_residual`` and reuses the Jacobian the
    landing at ``alpha = 1`` assembled at its result, since Jacobian errors
    only perturb the Newton direction.
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

    beta = _as_beta(beta)
    shifted = lam + 0.5 * beta
    basis = _basis_batch(shifted, nodes)
    x_derivative = scaled_derivatives(basis, lam, beta)

    residual = basis @ (nodes ** (-0.5 * beta) * weights) - moment_vector
    jacobian = np.hstack([x_derivative - 0.5 * beta * basis, basis])
    return residual, jacobian


# Residual tolerance of the landing, relative to max(1, max|moment|).  The
# polish takes the rule the rest of the way on the exact residual, so the
# landing only has to come within its reach.  Over the 414 specs of
# ``tools/rule_diff.py``, targets from 1e-13 to 1e-9 keep every outcome; at
# 1e-14, 168 specs fail on the evaluator's floor, and at 1e-7
# ``halves-0..7`` at beta = -1 + 1e-5 fails.
_TOLERANCE = 1e-10

# Every homotopy step, alpha = 1 included, is solved to this tolerance: a
# rule with alpha < 1 only seeds the next step, whose predictor misses by far
# more anyway, and the one at alpha = 1 only seeds the landing.
_WALK_TOLERANCE = 1e-5

# A walk solve also returns, without assembling at it, the iterate that a
# correction applied in full reaches once that correction is this small
# (``_correction_size``): Deuflhard's error-oriented termination.  Over the
# 414 specs of ``tools/rule_diff.py`` it moved no rule and cut the walk
# assembles by 23%; 1e-3 cut them by 16% and moved one rule, 1e-2 moved 11
# rules and lost a spec.
_WALK_CORRECTION = 3e-3

# A Newton solve gives up after this many iterations, or once one step has
# been halved this many times and is still infeasible.
_MAX_ITERATIONS = 50
_MAX_STEP_HALVINGS = 30

# A solve whose residual has not fallen below 0.9 times the best one for this
# many iterations in a row has stalled above its target and is declared
# divergent, however close it got: the walk retries with a shorter step, and
# a landing short of its target is no rule.
_STALL_ITERATIONS = 3

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

# The polish takes at most this many exact-residual Newton steps, and stops
# at a correction of one ulp: that step moves the rule by rounding only.
_POLISH_ITERATIONS = 4
_POLISH_FLOOR = float(np.finfo(float).eps)

# A polished rule is returned only if no row of its exact residual exceeds
# this many times the row's rounding floor (``_floor_ratio``).  Over 370
# traffic-set rules the ratio reads at most 1.06; the wrong rules of specs
# with one exponent from 1e15 to 1e20 read 5e9 and more.
_FLOOR_RATIO_BOUND = 8.0


def newton_solve(nodes, weights, exponents, beta, moment_vector, walk: bool = False) -> NewtonResult:
    """Newton iteration on the moment-matching map.

    The residual target is ``_WALK_TOLERANCE`` (1e-5) for a walk solve
    (``walk``) and ``_TOLERANCE`` (1e-10) for the landing, times
    ``max(1, max|moment|)``.
    The rescaled Newton equation is solved directly; the physical update
    directions are recovered through the same diagonal scalings,

        dx = x**(beta/2+1) / w * p_nodes,     dw = x**(beta/2) * p_weights,

    and applied in full.  Any step that would leave the feasible region is
    halved up to ``_MAX_STEP_HALVINGS`` times before the iteration is
    declared divergent.  The result is an iterate whose residual meets the
    target, the start itself (zero iterations) included.  A walk solve may
    also return the iterate that a correction applied in full (no
    halving) reaches once that correction's ``_correction_size`` is at most
    ``_WALK_CORRECTION`` (3e-3): it is returned without an ``assemble`` call
    at it, and ``NewtonResult`` then reports the residual and Jacobian of the
    iterate before it.  The landing has no such exit.  Any other end
    raises ``NewtonDivergedError``: the iteration budget or the
    safeguard is exhausted, the Jacobian is singular, the residual turns
    non-finite or stalls above the target for ``_STALL_ITERATIONS``
    iterations, or a correction (``_correction_size``) is at least
    ``_DIVERGENCE_RATIO`` times the one before: a converging iteration
    shrinks its corrections.
    """
    beta = _as_beta(beta)
    x = np.array(nodes, dtype=float, copy=True)
    w = np.array(weights, dtype=float, copy=True)
    m = np.asarray(moment_vector, dtype=float)
    n = x.size
    residual, jacobian = assemble(x, w, exponents, beta, m)
    target = (_WALK_TOLERANCE if walk else _TOLERANCE) * max(1.0, float(np.abs(m).max()))
    res_norm = float(np.abs(residual).max())
    history = [res_norm]
    iterations = 0
    best = math.inf
    stalled = 0
    correction = None
    contraction = 0.0
    while not res_norm <= target:  # a NaN residual has not converged either
        if res_norm < 0.9 * best:
            best = res_norm
            stalled = 0
        else:
            stalled += 1
            if stalled >= _STALL_ITERATIONS:
                raise NewtonDivergedError(
                    f"stalled at residual {best:.3e} (target {target:.3e})",
                    iterations=iterations,
                    residual=best,
                )
        if iterations == _MAX_ITERATIONS:
            raise NewtonDivergedError(
                f"no convergence in {_MAX_ITERATIONS} iterations (residual {res_norm:.3e})",
                iterations=_MAX_ITERATIONS,
                residual=res_norm,
            )
        iterations += 1
        try:
            p_scaled = _solve(jacobian, -residual)
        except SingularMatrixError as exc:
            raise NewtonDivergedError(
                f"Jacobian became singular: {exc}", iterations=iterations, residual=res_norm
            ) from exc
        size = _correction_size(x, w, beta, p_scaled)
        if correction is not None:
            if size >= _DIVERGENCE_RATIO * correction:
                raise NewtonDivergedError(
                    f"correction grew from {correction:.3e} to {size:.3e}",
                    iterations=iterations,
                    residual=res_norm,
                )
            if iterations == 2:
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
                    "feasibility safeguard exhausted", iterations=iterations, residual=res_norm
                )
            step_scale *= 0.5

        x, w = x_trial, w_trial
        if walk and halvings == 0 and size <= _WALK_CORRECTION:
            break  # accepted on the correction alone; the iterate is not assembled
        residual, jacobian = assemble(x, w, exponents, beta, m)
        res_norm = float(np.abs(residual).max())
        if not np.isfinite(res_norm):
            raise NewtonDivergedError("residual became non-finite", iterations=iterations, residual=res_norm)
        history.append(res_norm)
    return NewtonResult(x, w, iterations, res_norm, tuple(history), contraction, jacobian)


def compute_rule(spec: RuleSpec) -> QuadratureRule:
    """Build the generalized Gaussian rule for ``spec`` by homotopy walking.

    Starts from the classical Gauss-Jacobi rule (the root for the
    integer-exponent blend) unrefined, ``classical._jacobi_start``, then
    advances the blend parameter with adaptive steps, and always lands the
    final step exactly on 1.  Each solve starts from ``_predict``'s
    extrapolation of the last three accepted rules: the first from the
    Gauss-Jacobi rule itself, the second from the secant.  A diverged Newton
    solve is retried with half the step; after an accepted one the step is
    scaled by ``sqrt(1/4 / contraction)`` within ``[1/2, 2]`` (no growth
    right after a rejection), so that the next solve's corrections contract
    by about 1/4.  Every step, ``alpha = 1`` included, is solved to
    ``_WALK_TOLERANCE`` (1e-5), or until a full correction of at most
    ``_WALK_CORRECTION`` (3e-3), whose result is returned unassembled
    (``newton_solve``): the path only reads its nodes, weights and
    contraction.  The walk's ``alpha = 1`` rule then seeds the landing, one
    solve to ``_TOLERANCE`` (1e-10) on the same evaluator, and the polish
    reuses the landing's last Jacobian.  The landing runs once, after the
    walk: it never starts from a prediction, and a diverged landing is not
    retried.
    Walk and polish run on the canonically shifted spec; the
    weights return to ``x**beta`` at the end, and ``rule.spec`` is
    ``spec``.  Raises ``ContinuationFailedError`` if the step falls below
    ``_STEP_MIN``; it carries the last good state in the caller's weight,
    solved only as far as a walk solve goes.  Raises ``NewtonDivergedError``,
    with the landing's iterations and residual, if the landing diverges, and
    if the polished rule's exact residual exceeds ``_FLOOR_RATIO_BOUND`` times
    its rounding floor (``_floor_ratio``).  Raises ``DomainError`` if a
    weight under- or overflows in doubles when the factor ``x**c`` maps it
    back to the caller's weight, and before the walk if the exponent spread
    ``max(lam) - min(lam)`` is so wide (beyond about 6.7e18) that
    ``x**spread`` underflows to 0 at every double below 1, so that no rule
    in doubles can tell the widest exponents apart; ``classical`` raises it
    too, for a Gauss-Jacobi start for ``x**(beta + min(lam))`` whose nodes
    round to 1 in doubles.
    """
    # The rule only depends on the exponent set, and a sorted sequence keeps
    # the blended tracks alpha*lam_n + (1-alpha)*n from crossing mid-walk
    # (crossings create near-coincident exponents whose basis is nearly
    # dependent, stalling Newton); walk the sorted sequence internally,
    # shifted by c so that its smallest exponent is 0.
    lam = np.sort(spec.exponents)
    c = -lam[0]
    walk_spec = RuleSpec(lam + c, spec.beta - c)
    spread = float(walk_spec.exponents[-1])
    if math.nextafter(1.0, 0.0) ** spread == 0.0:
        raise DomainError(
            f"exponent spread {spread:.3g} is too wide for double precision: "
            "x**spread underflows to 0 at every double x < 1"
        )

    x, w = _jacobi_start(spec.n_nodes, walk_spec.beta)
    # every blend starts at exponent 0: one moment vector serves every alpha
    mu = refine.moments(walk_spec.exponents, walk_spec.beta)

    alpha = 0.0
    step = _STEP_INITIAL
    steps_taken = 0
    rejected_steps = 0
    rejected = False  # the last solve diverged
    total_iterations = 0
    path = [(alpha, x, w)]  # the last three accepted (alpha, nodes, weights), oldest first

    while alpha < 1.0:
        # checked after every step change: an accepted solve can shrink the
        # step too, down to where alpha + step rounds to alpha
        if step < _STEP_MIN:
            raise ContinuationFailedError(
                f"step size fell below {_STEP_MIN} at alpha = {alpha}",
                alpha=alpha,
                nodes=x,
                weights=w * x**c,
            )
        alpha_next = min(alpha + step, 1.0)
        lam_alpha = continuation_exponents(walk_spec.exponents, alpha_next)
        x0, w0 = _predict(path, alpha_next)
        try:
            result = newton_solve(x0, w0, lam_alpha, walk_spec.beta, mu, True)
        except NewtonDivergedError:
            rejected_steps += 1
            rejected = True
            step *= _SHRINK
            continue
        x, w = result.nodes, result.weights
        alpha = alpha_next
        path = (path + [(alpha, x, w)])[-3:]
        steps_taken += 1
        total_iterations += result.iterations
        # the first contraction ratio follows the predictor's miss: O(step**2)
        # for the secant of the second step, O(step**3) once three path points
        # exist; a cube-root rule for the latter saved no assemble calls, so
        # the square root stays
        factor = math.sqrt(_CONTRACTION_TARGET / result.contraction) if result.contraction > 0 else math.inf
        step *= min(1.0 if rejected else _GROWTH, max(_SHRINK, factor))
        rejected = False

    # land: one tighter solve from the walk's alpha = 1 rule, whose blend
    # the loop's last step left in lam_alpha
    try:
        landing = newton_solve(x, w, lam_alpha, walk_spec.beta, mu, False)
    except NewtonDivergedError as exc:
        raise NewtonDivergedError(
            f"the landing at alpha = 1 diverged: {exc}", iterations=exc.iterations, residual=exc.residual
        ) from exc
    total_iterations += landing.iterations
    x, w, residual, polish_iters = _polish(landing.nodes, landing.weights, walk_spec, landing.jacobian)
    res_norm = float(np.abs(residual).max())
    floor_ratio = _floor_ratio(x, w, walk_spec.beta, landing.jacobian, residual)
    if not floor_ratio <= _FLOOR_RATIO_BOUND:  # a NaN ratio fails too
        raise NewtonDivergedError(
            f"polished residual is {floor_ratio:.3e} times its rounding floor "
            f"(bound {_FLOOR_RATIO_BOUND:g})",
            iterations=total_iterations + polish_iters,
            residual=res_norm,
        )

    return QuadratureRule(
        nodes=x,
        weights=w * x**c,
        spec=spec,
        diagnostics=RuleDiagnostics(
            residual=res_norm,
            continuation_steps=steps_taken,
            newton_iterations=total_iterations + polish_iters,
            rejected_steps=rejected_steps,
            floor_ratio=floor_ratio,
        ),
    )


def _polish(x, w, spec: RuleSpec, jacobian: np.ndarray):
    """Squeeze out the numerical noise floor at the solved rule.

    The residual at a near-converged rule lives in a near-null Jacobian
    direction: ulp-level evaluation systematics park the smallest weight up
    to ~1e-11 relative away from the true rule.  The last Newton steps
    therefore use the bias-free residual of ``refine.exact_residual``, the
    arbitrary-precision pole expansion, which covers every exponent
    multiplicity; its exponent-only table is built once per call, on
    integer mantissas at a precision its largest coefficient sets, and
    each residual row is rounded to a double once.  The
    steps are simplified Newton: every one solves against ``jacobian``, the
    rescaled Jacobian the landing at ``alpha = 1`` assembled at
    ``(x, w)``, in ordinary arithmetic.  Any trouble aborts polishing and
    keeps the last accepted iterate.

    Progress is judged by the size of the Newton correction, relative to
    each node and weight, not by the residual: along that near-null
    direction an iterate 1e-11 off can show a smaller residual than the
    true rule rounded to doubles.  Steps continue while each correction is
    under a quarter of the one before; the result is the last iterate that
    passed, or ``(x, w)`` itself if none did, with its exact residual vector; at
    most ``_POLISH_ITERATIONS`` steps are taken.  A correction of at most
    one ulp (``_POLISH_FLOOR``) also ends the polish at once, without taking
    it: such a step moves the rule by rounding only, and another exact
    residual would only show that the corrections stopped contracting.
    """
    beta = spec.beta
    expansion = refine.pole_expansion(spec.exponents, beta)
    n = x.size
    best = None
    previous = math.inf
    iterations = 0
    for _ in range(_POLISH_ITERATIONS):
        residual = refine.exact_residual(x, w, expansion)
        if best is None:
            best = (x, w, residual)
        try:
            p_scaled = _solve(jacobian, -residual)
        except SingularMatrixError:
            break
        correction = _correction_size(x, w, beta, p_scaled)
        if not correction < 0.25 * previous:
            break  # corrections stopped contracting; the floor is reached
        best = (x, w, residual)
        if correction <= _POLISH_FLOOR:
            break  # the step would move the rule by rounding only
        previous = correction
        scale = x ** (0.5 * beta) / w
        x_trial = x + x * scale * p_scaled[:n]
        w_trial = w + w * scale * p_scaled[n:]
        if not _feasible(x_trial, w_trial):
            break
        iterations += 1
        x, w = x_trial, w_trial
    return best[0], best[1], best[2], iterations


def _floor_ratio(x, w, beta, jacobian, residual) -> float:
    """Largest ratio of a residual row to its rounding floor.

    Row n's floor ``eps * sum_k (|J[n, k]| + |J[n, N+k]|) * w_k * x_k**(-beta/2)``
    is how far the row moves when every node and weight moves by one ulp,
    from the rescaled Jacobian ``J`` of ``assemble``.  A row whose floor is
    0 scores 0 if its residual is 0 and infinity otherwise.
    """
    n = x.size
    floor = float(np.finfo(float).eps) * ((np.abs(jacobian[:, :n]) + np.abs(jacobian[:, n:])) @ (w * x ** (-0.5 * beta)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(residual == 0.0, 0.0, np.abs(residual) / floor)
    return float(ratios.max())


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
