"""Stable evaluation of Muntz-Legendre bases and their exact moments.

A Muntz system ``{x**l0, ..., x**lN}`` generally admits no three-term
recurrence, so the orthogonal basis elements are computed from their
contour-integral representation: the integration path is deformed to a
horizontal line ``Re(t) = sigma`` below every exponent, which turns each
basis value into an oscillatory half-line integral

    L_n(x) = (x**sigma / pi) * Im{ integral_0^inf f_n(t, w) e^{it} dt },

with ``w = -log x``.  The half-line splits into unit panels handled by
Gauss-Legendre plus an exponentially damped vertical tail handled by
Gauss-Laguerre.  Writing ``sigma = lam_min - theta/w`` removes the
``w -> 0`` singularity, and ``theta > 0`` is chosen per evaluation point by
minimizing a growth-versus-singularity estimate: one grid search, refined
by zooming into the bracket around each point's best candidate, serves
every point of a batch at once.  The evaluator has two tiers: the full one,
and the walk tier of the rule solver's homotopy walk, whose intermediate
rules are thrown away; it skips the zoom and uses a third of the
quadrature orders.

The vertical tail launched at ``t = a`` passes the integrand's poles, which
sit on the imaginary axis at heights up to ``H = theta + w*(max(lam)-min(lam))``.
If ``a`` is too short the tail integrand grows through many orders of
magnitude before ``exp(-y)`` kills it and no fixed-order rule can resolve
the cancellation, so the segment length doubles per evaluation point until
the sampled tail is either bump-free or negligibly small.  The doubling
starts one level below the shortest segment that reaches ``H``: below that,
the poles raise a bump in the tail integrand, and a point passes there only
when the bump is damped below the negligible level, where a longer segment
serves as well.

Because ``f_{n+1}`` is ``f_n`` times a single rational factor, one sweep of
updates over the sampled integrand yields the whole basis at a point for the
cost of the last element.  The same sweep is batched across evaluation
points, which is what the rule solver calls; it runs basis-major, so each
update multiplies one contiguous block of every point's samples.

Derivatives never need their own contour pass: ``x * L_n'(x)`` follows from
the values by a two-term recurrence.  Weighted moments follow from a
closed-form ratio recurrence, written once in ``moment_recurrence`` and run
in arbitrary precision: ``moments`` rounds it to doubles for the solver and
the polish residual of ``refine`` runs it at its own working precision, so
no numerical integration enters the solver anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np

from .classical import gauss_laguerre, gauss_legendre
from .errors import DomainError, InadmissibleSequenceError, LengthMismatchError


# Contour-evaluation constants.  ``_PANEL_WIDTH * _PANEL_COUNT`` is the base
# length of the oscillatory segment; it doubles (up to
# ``_MAX_SEGMENT_DOUBLINGS`` times) at evaluation points whose tail integrand
# would otherwise be unresolvable.  The tail beyond the segment decays like
# ``exp(-y)`` and goes to Gauss-Laguerre.  Every function reads these at call
# time.
_PANEL_WIDTH = 1.0
_PANEL_COUNT = 32
_THETA_MIN = 1e-6
_THETA_MAX = 40.0
_OMEGA_FLOOR = 1e-14
_MAX_SEGMENT_DOUBLINGS = 5
_TAIL_BUMP_FACTOR = 64.0
_TAIL_NEGLIGIBLE = 1e-18

# The two evaluator tiers as (Gauss-Legendre panel order, Gauss-Laguerre tail
# order, theta zoom rounds).  Eight rounds narrow every theta bracket below
# 1e-6; the walk takes theta from the search grid alone.
_FULL = (24, 48, 8)
_WALK = (8, 16, 0)


@dataclass(frozen=True)
class ThetaSelection:
    """Chosen contour offset and objective value, one entry per point."""

    theta: np.ndarray
    objective: np.ndarray
    converged: bool


def _as_exponents(exponents) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(exponents, dtype=float))
    if lam.ndim != 1 or lam.size == 0:
        raise LengthMismatchError("exponent sequence must be a non-empty 1-D array")
    if not np.all(np.isfinite(lam)):
        raise InadmissibleSequenceError("exponents must be finite")
    return lam


def ensure_admissible(exponents, beta: float) -> np.ndarray:
    lam = _as_exponents(exponents)
    try:
        beta = float(beta)
    except (TypeError, ValueError):
        raise InadmissibleSequenceError(f"beta must be a real number, got {beta!r}") from None
    if not math.isfinite(beta):
        raise InadmissibleSequenceError(f"beta must be finite, got {beta}")
    if np.min(lam) + beta <= -1.0:
        raise InadmissibleSequenceError(
            f"min exponent {np.min(lam)} with beta {beta} gives a divergent weighted moment; "
            "need min(lambda) + beta > -1"
        )
    return lam


def moment_recurrence(exponents, beta) -> list:
    """Weighted moments ``integral_0^1 L_n^beta(x) x**beta dx`` as mpmath
    numbers at the caller's working precision.

    Closed-form ratio recurrence: the first moment is ``1/(1+lam_0+beta)``
    and each later one is the previous scaled by ``-lam_{n-1}/(1+lam_n+beta)``.
    A leading exponent equal to zero therefore kills every later moment,
    which is orthogonality to constants.
    """
    beta_q = mp.mpf(beta)
    out = [1 / (1 + mp.mpf(exponents[0]) + beta_q)]
    for previous, current in zip(exponents[:-1], exponents[1:]):
        out.append(out[-1] * -mp.mpf(previous) / (1 + mp.mpf(current) + beta_q))
    return out


def moments(exponents, beta: float) -> np.ndarray:
    """All weighted moments at once, correctly rounded to doubles.

    The recurrence runs at 40 digits: a double-precision one accumulates a
    rounding random walk of ~sqrt(n) ulp, which is enough to bias the rule
    solver's smallest weight.
    """
    lam = ensure_admissible(exponents, beta)
    with mp.workdps(40):
        return np.array([float(m) for m in moment_recurrence(lam, float(beta))])


# Theta search: a log-spaced grid over [_THETA_MIN, _THETA_MAX], then rounds of
# a linear grid over the bracket around each point's best candidate.  A round
# keeps the two neighbours of its best candidate, shrinking the bracket by
# (_THETA_ZOOM - 1) / 2.
_THETA_GRID = 97
_THETA_ZOOM = 17


def _theta_search(lam, lam_min, omega, rounds: int) -> ThetaSelection:
    """Pick the contour offset ``theta`` for every frequency in ``omega`` at once.

    Minimizes the sum of a near-origin magnitude estimate of the sampled
    integrand (which blows up as theta shrinks) and the amplification
    ``x**sigma = exp(theta - lam_min*omega)`` divided by sqrt(theta) (which
    blows up as theta grows).  Any positive theta yields a valid contour;
    the minimizer only tunes conditioning.  ``rounds`` zoom rounds follow
    the grid, each narrowing every bracket eightfold; with none, every theta
    is a point of the log-spaced grid.  Every operation is elementwise per
    point: a point's theta does not depend on the other points in the batch.
    ``converged`` is False when the objective was infinite at every
    candidate of some point.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))[:, None]
    # near-origin magnitude of the sampled integrand: numerator offsets
    # omega*(lam_min+lam+1) - theta against denominator distances
    # theta + omega*(lam - lam_min), which is |omega*(sigma - lam_v)| for
    # sigma = lam_min - theta/omega
    num_centers = (omega * (lam_min + lam[:-1] + 1.0))[:, None, :]
    den_centers = (omega * (lam[:-1] - lam_min))[:, None, :]
    last_center = omega * (lam[-1] - lam_min)
    prefactor = np.exp(np.sqrt(omega))
    growth_exponent = -lam_min * omega

    def objective(theta):  # theta[i, j]: candidate j for point i
        ratios = np.abs((theta[:, :, None] - num_centers) / (theta[:, :, None] + den_centers))
        magnitude = np.prod(ratios, axis=2) / np.abs(theta + last_center)
        value = prefactor * magnitude + np.exp(np.minimum(theta + growth_exponent, 700.0)) / np.sqrt(theta)
        return np.where(np.isfinite(value), value, np.inf)

    rows = np.arange(omega.shape[0])
    grid = np.geomspace(_THETA_MIN, _THETA_MAX, _THETA_GRID)
    steps = np.linspace(0.0, 1.0, _THETA_ZOOM)
    candidates = np.broadcast_to(grid, (rows.size, grid.size))
    theta = np.full(rows.size, _THETA_MIN)
    best_value = np.full(rows.size, np.inf)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(rounds + 1):
            values = objective(candidates)
            best = np.argmin(values, axis=1)
            improved = values[rows, best] < best_value
            theta = np.where(improved, candidates[rows, best], theta)
            best_value = np.where(improved, values[rows, best], best_value)
            lo = candidates[rows, np.maximum(best - 1, 0)]
            hi = candidates[rows, np.minimum(best + 1, candidates.shape[1] - 1)]
            candidates = lo[:, None] + (hi - lo)[:, None] * steps
    return ThetaSelection(theta=theta, objective=best_value, converged=bool(np.all(np.isfinite(best_value))))


_MAX_PANEL_WIDTH = 16.0  # e^{it} stays resolvable at the default panel order


def _graded_widths(first: float, segment: float):
    """Panel widths: four at ``first``, doubling every second panel to a cap."""
    starts, widths = [], []
    position, current, at_current = 0.0, first, 0
    while position < segment:
        step = min(current, segment - position)
        starts.append(position)
        widths.append(step)
        position += step
        at_current += 1
        if at_current >= (4 if current == first else 2) and current < _MAX_PANEL_WIDTH:
            current = min(2.0 * current, _MAX_PANEL_WIDTH)
            at_current = 0
    return np.asarray(starts), np.asarray(widths)


@lru_cache(maxsize=128)
def _panel_grid(first: float, segment: float, order: int):
    """Graded panel sample points, weights, and oscillatory phase on [0, segment].

    The integrand's only sharp feature sits within O(theta) of the origin,
    so the first panels use width ``first`` (matched to theta) and then
    widths double every second panel up to a fixed cap; the sample count
    grows only logarithmically with the segment length chosen by the
    tail-escalation test.
    """
    gl = gauss_legendre(order)
    starts, widths = _graded_widths(first, segment)
    t = (starts[:, None] + widths[:, None] * gl.nodes[None, :]).ravel()
    w = (widths[:, None] * gl.weights[None, :]).ravel()
    phase = np.exp(1j * t)
    for arr in (t, w, phase):
        arr.setflags(write=False)
    return t, w, phase


def _first_panel_width(theta_group: np.ndarray) -> float:
    """First-panel width resolving the pole at distance theta from the origin."""
    scale = float(min(_PANEL_WIDTH, np.min(theta_group)))
    if scale >= _PANEL_WIDTH:
        return _PANEL_WIDTH
    return max(2.0 ** math.floor(math.log2(scale)), _PANEL_WIDTH / 256.0)


def _kernel_sweep(u, v, num_off, den_off, first):
    """Kernel products of every basis prefix at the contour samples ``u + iv``.

    Real ``u > 0`` and ``v`` broadcast to the samples (panels: ``v = 0``;
    tail: ``u`` the segment end).  Entry ``[n, i, k]`` is the product of the
    rational factors of prefix ``n`` for point ``i`` at sample ``k``, times
    ``first`` (the oscillatory phase on the panels, 1 on the tail).  Factors
    after the first are built in real arithmetic, divided through by ``u``;
    a running product over the basis rows sweeps the whole basis, one
    contiguous ``(points, samples)`` slab per step.  Overflowed samples come
    out non-finite.
    """
    n_points, n_basis = num_off.shape
    factors = np.empty((n_basis, n_points, np.broadcast(u, v).size), dtype=complex)
    factors[0] = first / (u + 1j * (v + den_off[:, :1]))
    a = num_off.T[:-1, :, None]
    b = den_off.T[1:, :, None]
    vb = v + b
    inv_u = 1.0 / u
    # (u + i(v+a)) / (u + i(v+b)) = (u + (v+a)(v+b)/u + i(a-b)) / (u + (v+b)^2/u)
    den = vb * vb * inv_u
    den += u
    re = (v + a) * vb * inv_u
    re += u
    re /= den
    factors.real[1:] = re
    np.divide(a - b, den, out=factors.imag[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_basis):
            np.multiply(factors[n], factors[n - 1], out=factors[n])
    return factors


def _contract(sweep, weights) -> np.ndarray:
    """``sweep[n, i, :] @ weights`` for every basis row and point, as one 2-D matvec.

    The stacked 3-D product rounds differently for a single-point batch, so
    a point's integral would depend on the batch it came in.
    """
    return (sweep.reshape(-1, sweep.shape[2]) @ weights).reshape(sweep.shape[:2])


def _segment_levels(num_off, den_off, amplitude, theta, lag, tails) -> np.ndarray:
    """Per-point segment-doubling level that makes the Laguerre tail usable.

    For each candidate segment length the tail integrand is swept through
    the basis recurrence at the Laguerre ordinates ``lag.nodes``; a point is
    accepted when every sample either stays within ``_TAIL_BUMP_FACTOR`` of
    its launch value (resolvable) or contributes below ``_TAIL_NEGLIGIBLE``
    relative to the output scale ``max(1, x**lam_min)`` (harmless).

    A point is first tried at level ``max(0, p - 1)``, where ``p`` is the
    shortest level whose segment reaches the highest pole height
    ``max(-den_off) = theta + w*(max(lam) - min(lam))`` (clipped to
    ``_MAX_SEGMENT_DOUBLINGS``), and then at each level above until it passes.

    Every sweep is also contracted into ``tails[n, i]``, the tail integral,
    overwritten while point i is pending, so it ends at the returned level.
    Overflowed samples lie in the damped-dead zone and are dropped.
    """
    top = _MAX_SEGMENT_DOUBLINGS
    segments = _PANEL_WIDTH * _PANEL_COUNT * 2.0 ** np.arange(top + 1)
    # p: the shortest segment reaching the highest pole, theta + w*(max lam - min lam)
    reach = np.minimum(np.searchsorted(segments, np.max(-den_off, axis=1)), top)
    start = np.maximum(reach - 1, 0)
    levels = np.full(num_off.shape[0], top, dtype=int)
    waiting = np.ones(num_off.shape[0], dtype=bool)
    damp = np.exp(-lag.nodes)
    # amplitude = x**lam_min * e**theta, so the output scale is amp * e**-theta
    dead_cut = _TAIL_NEGLIGIBLE * np.maximum(1.0, amplitude * np.exp(-theta)) / amplitude

    for level, segment in enumerate(segments):
        if not np.any(waiting):
            break
        pending = np.flatnonzero(waiting & (start <= level))
        if pending.size == 0:
            continue
        cut = dead_cut[pending]
        sweep = _kernel_sweep(segment, lag.nodes, num_off[pending], den_off[pending], 1.0)
        magnitudes = np.abs(sweep)
        launch = magnitudes[:, :, :1] + 1.0 / segment
        bump_ok = magnitudes <= _TAIL_BUMP_FACTOR * launch
        dead = magnitudes * damp <= cut[:, None]
        ok = np.all(bump_ok | dead, axis=(0, 2))

        np.copyto(sweep, 0.0, where=~np.isfinite(sweep))
        tails[:, pending] = 1j * np.exp(1j * segment) * _contract(sweep, lag.weights)
        levels[pending[ok]] = level
        waiting[pending[ok]] = False
    return levels


def _basis_batch(shifted, xs, walk: bool = False):
    """Basis values for the (already shifted) exponents at many points.

    Returns ``values`` where ``values[n, i]`` is the n-th basis element at
    ``xs[i]``, from the walk tier ``_WALK`` if ``walk`` and the full tier
    ``_FULL`` otherwise.  Points equal to 1 short-circuit to exact ones; a
    single-element sequence bypasses the contour entirely.  The Laguerre
    tails come from ``_segment_levels``; only the panels are swept here.
    """
    lam = _as_exponents(shifted)
    nb = lam.size
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    lam_min = float(np.min(lam))

    values = np.empty((nb, xs.size))
    at_one = xs == 1.0
    if np.any(at_one):
        values[:, at_one] = 1.0
    active = np.flatnonzero(~at_one)
    if active.size == 0:
        return values
    xa = xs[active]

    if nb == 1:
        values[0, active] = xa ** lam[0]
        return values

    panel_order, laguerre_order, rounds = _WALK if walk else _FULL
    omega = np.maximum(-np.log(xa), _OMEGA_FLOOR)
    theta = _theta_search(lam, lam_min, omega, rounds).theta

    # All sigma-dependent quantities enter only through these offsets, so
    # sigma itself (which blows up as omega -> 0) is never formed here.
    num_off = omega[:, None] * (lam_min + lam[None, :] + 1.0) - theta[:, None]
    den_off = omega[:, None] * (lam_min - lam[None, :]) - theta[:, None]
    amplitude = xa ** lam_min * np.exp(theta)

    tails = np.empty((nb, xa.size), dtype=complex)
    levels = _segment_levels(num_off, den_off, amplitude, theta, gauss_laguerre(laguerre_order), tails)

    values[0, active] = xa ** lam[0]
    for level in np.unique(levels):
        in_level = np.flatnonzero(levels == level)
        segment = _PANEL_WIDTH * _PANEL_COUNT * 2.0 ** int(level)
        first = _first_panel_width(theta[in_level])
        t_panel, w_panel, phase = _panel_grid(first, segment, panel_order)
        q_osc = _contract(_kernel_sweep(t_panel, 0.0, num_off[in_level], den_off[in_level], phase), w_panel)
        values[1:, active[in_level]] = amplitude[in_level] / math.pi * (q_osc + tails[:, in_level])[1:].imag
    return values


def _check_point(x: float) -> float:
    x = float(x)
    if not (0.0 < x <= 1.0) or not np.isfinite(x):
        raise DomainError(f"evaluation point must lie in (0, 1], got {x}")
    return x


def eval_all(exponents, x: float, beta: float = 0.0) -> np.ndarray:
    """Basis values ``L_0(x), ..., L_N(x)`` of the family orthogonal under
    weight ``x**beta``.

    These are ``x**(-beta/2)`` times the unit-weight basis of the exponents
    shifted by ``beta/2``; at ``x = 1`` every value is exactly 1.
    """
    lam = ensure_admissible(exponents, beta)
    x = _check_point(x)
    values = _basis_batch(lam + 0.5 * float(beta), np.array([x]))[:, 0]
    return values * x ** (-0.5 * float(beta))


def scaled_derivatives(values, exponents, beta: float = 0.0) -> np.ndarray:
    """Turn shifted-basis values at one point into ``x * L_n'(x)`` values.

    ``values`` must be evaluations of the basis for ``exponents + beta/2``
    at a single x (a vector), or at several points (a matrix whose rows are
    basis indices).  The recurrence

        x L_n' = x L_{n-1}' + (lam_n + beta/2) L_n + (1 + lam_{n-1} + beta/2) L_{n-1}

    runs in index order, seeded by ``x L_0' = (lam_0 + beta/2) L_0``.
    """
    lam = _as_exponents(exponents)
    vals = np.asarray(values, dtype=float)
    if vals.shape[0] != lam.size:
        raise LengthMismatchError(f"{vals.shape[0]} values for {lam.size} exponents")
    shifted = lam + 0.5 * float(beta)
    out = np.empty_like(vals)
    out[0] = shifted[0] * vals[0]
    for n in range(1, lam.size):
        out[n] = out[n - 1] + shifted[n] * vals[n] + (1.0 + shifted[n - 1]) * vals[n - 1]
    return out
