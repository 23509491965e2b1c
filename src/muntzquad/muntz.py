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
minimizing a growth-versus-singularity estimate over one log-spaced grid,
searched for every point of a batch at once.  That is the full tier of the
evaluator.

The rule solver's homotopy walk throws its intermediate rules away, so its
Newton solves stop at 1e-5 and run on a cheaper walk tier.  Substituting
``t = -i*zeta`` (offsets at ``theta = 0``) turns the integral into the
Bromwich form ``L_n(x) = x**lam_min (1/2 pi i) integral e**zeta F_n(zeta) dzeta``,
whose poles ``-w*(lam - lam_min)`` lie on the negative real axis; the walk
tier deforms the path to one hyperbola left of them and takes the midpoint
rule in its parameter, which converges geometrically (Weideman & Trefethen,
*Math. Comp.* 76, 2007; Trefethen, Weideman & Schmelzer, *BIT* 46, 2006).
The shape follows the basis row count only, so the walk tier has no theta,
no segment and no tail, and every point of a batch takes the same samples.

On the full tier, the vertical tail launched at ``t = a`` passes the
integrand's poles, which sit on the imaginary axis at heights up to
``H = theta + w*(max(lam)-min(lam))``.  If ``a`` is too short the tail
integrand grows through many orders of magnitude before ``exp(-y)`` kills
it and no fixed-order rule can resolve the cancellation, so the segment
length doubles per evaluation point until the sampled tail is either
bump-free or negligibly small.  The doubling starts one level below the
shortest segment that reaches ``H``: below that, the poles raise a bump in
the tail integrand, and a point passes there only when the bump is damped
below the negligible level, where a longer segment serves as well.  The test runs in rounds, each one sweep of every pending
point at its own level; the tails are then swept once at the chosen levels.

A full-tier Newton solve evaluates the basis at nodes that barely move
between its iterates, so it carries a ``ContourPlan``: the solve's first
evaluation chooses each point's theta and segment level and the solve keeps
both, so within a solve the evaluated map is one smooth function of the
iterate.  Without a plan every evaluation chooses its contour afresh.

Because ``f_{n+1}`` is ``f_n`` times a single rational factor, one sweep of
updates over the sampled integrand yields the whole basis at a point for the
cost of the last element.  The same sweep is batched across evaluation
points, which is what the rule solver calls; it runs basis-major, so each
update multiplies one contiguous ``(points, samples)`` slab.  The rows stream
through one reused block buffer of about ``_BLOCK_SAMPLES`` samples, and the
last row of a block carries into the next: the hyperbola, the panels and the
tails contract each block as it comes and the tail test tests each block, so
no ``(basis, points, samples)`` array is ever formed.

Derivatives never need their own contour pass: ``x * L_n'(x)`` follows from
the values by a two-term recurrence.  Weighted moments follow from a
closed-form ratio recurrence, written once in ``moment_recurrence`` and run
in arbitrary precision on raw ``mpmath.libmp`` kernels: ``moments`` rounds
it to doubles for the solver and the polish residual of ``refine`` runs it
at its own working precision, so no numerical integration enters the solver
anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from mpmath import libmp
from mpmath.libmp import mpf_add, mpf_div, mpf_mul

from .classical import gauss_laguerre, gauss_legendre
from .errors import DomainError, InadmissibleSequenceError, LengthMismatchError, _as_real


# Contour-evaluation constants.  ``_PANEL_WIDTH * _PANEL_COUNT`` is the base
# length of the oscillatory segment; it doubles (up to
# ``_MAX_SEGMENT_DOUBLINGS`` times) at evaluation points whose tail integrand
# would otherwise be unresolvable.  The tail beyond the segment decays like
# ``exp(-y)`` and goes to Gauss-Laguerre.  Every function reads these at call
# time, except the theta grid, which is built from ``_THETA_MIN`` and
# ``_THETA_MAX`` at import.
_PANEL_WIDTH = 1.0
_PANEL_COUNT = 32
_THETA_MIN = 1e-6
_THETA_MAX = 40.0
_OMEGA_FLOOR = 1e-14
_MAX_SEGMENT_DOUBLINGS = 5
_TAIL_BUMP_FACTOR = 64.0
_TAIL_NEGLIGIBLE = 1e-18
# The kernel sweep runs through blocks of basis rows holding about this many
# complex samples (256 KB), so a block and its temporaries stay in cache.
_BLOCK_SAMPLES = 16384

# The full evaluator tier as (Gauss-Legendre panel order, Gauss-Laguerre tail
# order).  The tail order is sized to the tier's error: a longer tail leaves
# the residue-sum errors of ``tests/test_muntz.py`` where they are, and 12
# nodes raise the 21-term prefix's worst over a 41-point grid from 1.0e-14 to
# 2.9e-14.
_FULL = (24, 16)

# The walk tier's hyperbola crosses the real axis at ``_WALK_CROSSING`` and is
# cut where ``Re(zeta)`` has fallen ``_WALK_DECAY`` below that, so the last
# samples are damped by about e**-45.  Its (angle, samples) follow the basis
# rows: (row bound, angle, samples), the first bound the row count meets.
_WALK_CROSSING = 8.0
_WALK_DECAY = 45.0
_WALK_SHAPES = ((80, 0.5, 48), (120, 0.35, 64), (math.inf, 0.2, 128))


@dataclass(frozen=True)
class ThetaSelection:
    """Chosen contour offset, one entry per point."""

    theta: np.ndarray
    converged: bool


@dataclass
class ContourPlan:
    """The contour of one Newton solve, one entry per point off ``x = 1``.

    ``_basis_batch`` chooses ``theta`` and ``levels`` (the segment levels)
    at its first evaluation with the plan and keeps both for every later
    one, so a plan serves evaluations at a fixed number of points.
    """

    theta: np.ndarray | None = None
    levels: np.ndarray | None = None


def _as_exponents(exponents) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(exponents, dtype=float))
    if lam.ndim != 1 or lam.size == 0:
        raise LengthMismatchError("exponent sequence must be a non-empty 1-D array")
    if not np.all(np.isfinite(lam)):
        raise InadmissibleSequenceError("exponents must be finite")
    return lam


def _as_beta(beta) -> float:
    """``beta`` as a float; ``InadmissibleSequenceError`` unless it is a finite real."""
    beta = _as_real(beta, InadmissibleSequenceError, "beta")
    if not math.isfinite(beta):
        raise InadmissibleSequenceError(f"beta must be finite, got {beta}")
    return beta


def ensure_admissible(exponents, beta: float) -> np.ndarray:
    lam = _as_exponents(exponents)
    beta = _as_beta(beta)
    if np.min(lam) + beta <= -1.0:
        raise InadmissibleSequenceError(
            f"min exponent {np.min(lam)} with beta {beta} gives a divergent weighted moment; "
            "need min(lambda) + beta > -1"
        )
    return lam


def moment_recurrence(exponents, beta: float, prec: int) -> list:
    """Weighted moments ``integral_0^1 L_n^beta(x) x**beta dx`` as raw
    ``mpmath.libmp`` numbers, each operation rounded to nearest at ``prec`` bits.

    Closed-form ratio recurrence: the first moment is ``1/(1+lam_0+beta)``
    and each later one is the previous scaled by ``-lam_{n-1}/(1+lam_n+beta)``.
    A leading exponent equal to zero therefore kills every later moment,
    which is orthogonality to constants.  The raw kernels round exactly as
    mpmath numbers at the same precision would, without their per-object
    overhead.
    """
    rnd = libmp.round_nearest
    lam = [libmp.from_float(float(v)) for v in exponents]
    beta_q = libmp.from_float(float(beta))

    def denominator(v):
        return mpf_add(mpf_add(v, libmp.fone, prec, rnd), beta_q, prec, rnd)

    out = [mpf_div(libmp.fone, denominator(lam[0]), prec, rnd)]
    for previous, current in zip(lam[:-1], lam[1:]):
        scaled = mpf_mul(out[-1], libmp.mpf_neg(previous), prec, rnd)
        out.append(mpf_div(scaled, denominator(current), prec, rnd))
    return out


_MOMENT_PREC = libmp.dps_to_prec(40)


def moments(exponents, beta: float) -> np.ndarray:
    """All weighted moments at once, correctly rounded to doubles.

    The recurrence runs at 40 digits: a double-precision one accumulates a
    rounding random walk of ~sqrt(n) ulp, which is enough to bias the rule
    solver's smallest weight.
    """
    lam = ensure_admissible(exponents, beta)
    rnd = libmp.round_nearest
    return np.array([libmp.to_float(m, rnd=rnd) for m in moment_recurrence(lam, beta, _MOMENT_PREC)])


# Theta search: a log-spaced grid over [_THETA_MIN, _THETA_MAX], about 20%
# between neighbours, built once.
_THETA_GRID = np.geomspace(_THETA_MIN, _THETA_MAX, 97)


def _theta_search(lam, lam_min, omega) -> ThetaSelection:
    """Pick the contour offset ``theta`` for every frequency in ``omega`` at once.

    Minimizes the sum of a near-origin magnitude estimate of the sampled
    integrand (which blows up as theta shrinks) and the amplification
    ``x**sigma = exp(theta - lam_min*omega)`` divided by sqrt(theta) (which
    blows up as theta grows).  Any positive theta yields a valid contour;
    the minimizer only tunes conditioning, so every point takes the best
    point of the log-spaced grid, with no refinement between grid points.
    Every operation is elementwise per point: a point's theta does not
    depend on the other points in the batch.  ``converged`` is False when
    the objective was infinite at every grid point of some point.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))[:, None]
    # near-origin magnitude of the sampled integrand: numerator offsets
    # omega*(lam_min+lam+1) - theta against denominator distances
    # theta + omega*(lam - lam_min), which is |omega*(sigma - lam_v)| for
    # sigma = lam_min - theta/omega
    num_centers = (omega * (lam_min + lam[:-1] + 1.0))[:, :, None]
    den_centers = (omega * (lam[:-1] - lam_min))[:, :, None]
    grid = _THETA_GRID
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = grid - num_centers  # ratios[i, v, j]: point i, exponent v, grid point j
        ratios /= grid + den_centers
        np.abs(ratios, out=ratios)
        magnitude = np.prod(ratios, axis=1) / np.abs(grid + omega * (lam[-1] - lam_min))
        values = np.exp(np.sqrt(omega)) * magnitude + np.exp(np.minimum(grid - lam_min * omega, 700.0)) / np.sqrt(grid)
    values = np.where(np.isfinite(values), values, np.inf)
    best = np.argmin(values, axis=1)  # 0, so _THETA_MIN, where every value is infinite
    return ThetaSelection(theta=grid[best], converged=bool(np.isfinite(values.min(axis=1)).all()))


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
    """Kernel products of every basis prefix at the contour samples ``u + iv``,
    one block of basis rows at a time.

    Real ``u > 0`` and ``v`` broadcast to the samples (panels: ``u`` the
    abscissas, ``v = 0``; tail: ``v`` the Laguerre ordinates and ``u`` the
    segment end, a scalar or one per point as a ``(points, 1)`` column; walk
    hyperbola: ``u`` and ``v`` both one per sample, the same for every point).
    Yields ``(start, block)`` for consecutive blocks of rows: entry
    ``block[j, i, k]`` is the product of the rational factors of prefix
    ``start + j`` for point ``i`` at sample ``k``, times ``first`` (the
    oscillatory phase on the panels, 1 on the tail and the hyperbola).
    Factors after the first are built in real arithmetic, divided through by
    ``u``; a running product over the basis rows sweeps the whole basis, one
    contiguous ``(points, samples)`` slab per step, and the previous block's
    last row carries into the next block's first.  Overflowed samples come out
    non-finite.

    A block holds about ``_BLOCK_SAMPLES`` samples and at least two rows: a
    one-row remainder joins the first block, so no contraction of a block is
    a one-row matvec (see ``_contract``).  One set of buffers serves every
    block, so a block is valid only until the next one is requested; its
    consumer may overwrite it.
    """
    n_points, n_basis = num_off.shape
    n_samples = np.broadcast(u, v).shape[-1]
    rows = max(2, _BLOCK_SAMPLES // (n_points * n_samples))
    head = n_basis if n_basis <= rows + 1 else rows + (n_basis % rows == 1)
    block = np.empty((head, n_points, n_samples), dtype=complex)
    den, re = np.empty(block.shape), np.empty(block.shape)
    # factor n > 0 is (u + i(v + a[n-1])) / (u + i(v + b[n-1])), that is
    # (u + (v+a)(v+b)/u + i(a-b)) / (u + (v+b)^2/u)
    a = num_off.T[:-1, :, None]
    b = den_off.T[1:, :, None]
    a_minus_b = a - b
    inv_u = 1.0 / u
    block[0] = first / (u + 1j * (v + den_off[:, :1]))
    carry = np.empty(block.shape[1:], dtype=complex) if head < n_basis else None
    start, stop = 0, head
    while start < n_basis:
        out = block[: stop - start]
        lo = max(start, 1)  # the block's first row with a rational factor
        rational = slice(lo - 1, stop - 1)
        vb = v + b[rational]
        va = v + a[rational]
        factors = out[lo - start :]
        # a pole height |v + b| beyond 1e154 overflows its square, and the factor
        # comes out 0 + 0i (NaN if |v + a| overflows too); its size is |u + i(v + a)| / |v + b|
        with np.errstate(over="ignore", invalid="ignore"):
            va *= vb
            vb *= vb
            den_n = np.multiply(vb, inv_u, out=den[: stop - lo])
            den_n += u
            re_n = np.multiply(va, inv_u, out=re[: stop - lo])
            re_n += u
            re_n /= den_n
            factors.real = re_n
            np.divide(a_minus_b[rational], den_n, out=factors.imag)
        # freed before the consumer runs, so that its temporaries can reuse the
        # memory: a one-block sweep then holds no more than the block itself
        del va, vb, den_n, re_n
        if stop == n_basis:
            del den, re
        slabs = list(out)
        with np.errstate(over="ignore", invalid="ignore"):
            if start:
                np.multiply(slabs[0], carry, out=slabs[0])
            for previous, slab in zip(slabs, slabs[1:]):
                np.multiply(slab, previous, out=slab)
        if stop < n_basis:  # copied before the consumer may overwrite the block
            np.copyto(carry, slabs[-1])
        yield start, out
        start, stop = stop, min(stop + rows, n_basis)


def _contract(sweep, weights) -> np.ndarray:
    """``sweep[n, i, :] @ weights`` for every basis row and point, as one 2-D matvec.

    The stacked 3-D product rounds differently for a single-point batch, so
    a point's integral would depend on the batch it came in.  A one-row
    matrix rounds differently too: with OpenBLAS 0.3.31 a ``(1, K)`` matvec
    differs from the same row inside a taller matrix for random complex rows
    at every K from 2 to 399 and at 576, 1000, 1500 and 1728, while row
    blocks of 2, 3, 5, 17, 64 or 257 rows match it.  So ``_kernel_sweep``
    yields no block of one basis row, and a row's integral does not depend
    on the block it was swept in.
    """
    return (sweep.reshape(-1, sweep.shape[2]) @ weights).reshape(sweep.shape[:2])


def _segment_levels(num_off, den_off, amplitude, theta, lag) -> np.ndarray:
    """Per-point segment-doubling level that makes the Laguerre tail usable.

    For each candidate segment length the tail integrand is swept through
    the basis recurrence at the Laguerre ordinates ``lag.nodes``; a point is
    accepted when every sample either stays within ``_TAIL_BUMP_FACTOR`` of
    its launch value (resolvable) or contributes below ``_TAIL_NEGLIGIBLE``
    relative to the output scale ``max(1, x**lam_min)`` (harmless).

    A point is first tried at level ``max(0, p - 1)``, where ``p`` is the
    shortest level whose segment reaches the highest pole height
    ``max(-den_off) = theta + w*(max(lam) - min(lam))`` (clipped to
    ``_MAX_SEGMENT_DOUBLINGS``), and then at each level above until it
    passes or has failed at ``_MAX_SEGMENT_DOUBLINGS``.  The test runs in
    rounds: one ``_kernel_sweep`` call per round sweeps every pending point
    at its own level, so there are as many calls as the most levels any one
    point tries.  Both tests run on each block of rows the sweep yields, and
    a point passes a round only if it passes every block.
    """
    top = _MAX_SEGMENT_DOUBLINGS
    segments = _PANEL_WIDTH * _PANEL_COUNT * 2.0 ** np.arange(top + 1)
    # p: the shortest segment reaching the highest pole, theta + w*(max lam - min lam)
    reach = np.minimum(np.searchsorted(segments, np.max(-den_off, axis=1)), top)
    trying = np.maximum(reach - 1, 0)  # the level each pending point tries next
    levels = np.full(num_off.shape[0], top, dtype=int)
    pending = np.arange(num_off.shape[0])
    damp = np.exp(-lag.nodes)
    # amplitude = x**lam_min * e**theta, so the output scale is amp * e**-theta
    dead_cut = _TAIL_NEGLIGIBLE * np.maximum(1.0, amplitude * np.exp(-theta)) / amplitude

    while pending.size:
        at = trying[pending]
        segment = segments[at][:, None]
        cut = dead_cut[pending][:, None]
        launch_floor = 1.0 / segment
        for start, block in _kernel_sweep(segment, lag.nodes, num_off[pending], den_off[pending], 1.0):
            magnitudes = np.abs(block)
            launch = magnitudes[:, :, :1] + launch_floor
            bump_ok = magnitudes <= _TAIL_BUMP_FACTOR * launch
            dead = magnitudes * damp <= cut
            passed = (bump_ok | dead).all(axis=(0, 2))
            ok = passed if start == 0 else ok & passed
        levels[pending[ok]] = at[ok]
        pending = pending[~ok & (at < top)]
        trying[pending] += 1
    return levels


def _tail_integrals(num_off, den_off, levels, lag) -> np.ndarray:
    """Tail integrals ``tails[n, i]`` launched at the end of point i's segment
    at ``levels[i]``: one ``_kernel_sweep`` of every point, each block
    contracted as it comes; overflowed samples (damped-dead) are dropped.
    """
    segment = _PANEL_WIDTH * _PANEL_COUNT * 2.0 ** levels
    turn = 1j * np.exp(1j * segment)
    tails = np.empty(num_off.shape[::-1], dtype=complex)
    for start, block in _kernel_sweep(segment[:, None], lag.nodes, num_off, den_off, 1.0):
        np.copyto(block, 0.0, where=~np.isfinite(block))
        tails[start : start + len(block)] = turn * _contract(block, lag.weights)
    return tails


def _walk_integrals(num_off, den_off) -> np.ndarray:
    """Integrals ``[n, i]`` on the walk tier's hyperbola, for offsets taken at
    ``theta = 0``: one ``_kernel_sweep`` of every point, each block contracted
    as it comes.

    The midpoint rule in ``phi`` on ``zeta(phi) = mu*(1 + sin(i*phi - angle))``,
    ``0 < phi < phi_max``, the upper half of a contour that crosses the real
    axis at ``_WALK_CROSSING`` and runs left of every pole (Weideman &
    Trefethen, *Math. Comp.* 76, 2007), with the angle and sample count of
    ``_WALK_SHAPES`` for the row count.  In the sweep's variable
    ``-i*zeta = u + iv``, so ``u = Im(zeta) > 0`` and ``v = -Re(zeta)``; the
    weights ``i*h*e**zeta*zeta'(phi)`` hold the exponential and the Jacobian,
    and ``L_n(x)`` is ``-x**lam_min / pi`` times the integral's imaginary part.
    """
    angle, samples = next((angle, samples) for rows, angle, samples in _WALK_SHAPES
                          if num_off.shape[1] <= rows)
    mu = _WALK_CROSSING / (1.0 - math.sin(angle))
    h = math.acosh(1.0 + _WALK_DECAY / (mu * math.sin(angle))) / samples
    phi = h * (np.arange(samples) + 0.5)
    zeta = mu * (1.0 + np.sin(1j * phi - angle))
    weights = 1j * h * np.exp(zeta) * (1j * mu * np.cos(1j * phi - angle))  # i*h*e**zeta*zeta'
    integrals = np.empty(num_off.shape[::-1], dtype=complex)
    for start, block in _kernel_sweep(zeta.imag, -zeta.real, num_off, den_off, 1.0):
        integrals[start : start + len(block)] = _contract(block, weights)
    return integrals


def _basis_batch(shifted, xs, walk: bool = False, *, plan: ContourPlan | None = None):
    """Basis values for the (already shifted) exponents at many points.

    Returns ``values`` where ``values[n, i]`` is the n-th basis element at
    ``xs[i]``.  Points equal to 1 short-circuit to exact ones; a
    single-element sequence bypasses the contour entirely.

    The walk tier (``walk``) takes ``_walk_integrals`` on one hyperbola
    whose shape follows the row count only, so it needs no theta, no
    segment and no tail.

    The full tier (``_FULL``) takes the Laguerre tails from
    ``_tail_integrals`` at the segment levels; the panels are swept per
    level, and each block of panel rows goes straight into its rows of
    ``values``.  A ``plan`` keeps its first evaluation's theta and segment
    levels for every later one (``ContourPlan``); without one every point
    searches the theta grid and runs the tail test of ``_segment_levels``.
    The walk tier ignores ``plan``.
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

    omega = np.maximum(-np.log(xa), _OMEGA_FLOOR)
    # All sigma-dependent quantities enter only through these offsets, so
    # sigma itself (which blows up as omega -> 0) is never formed here.
    num_off = omega[:, None] * (lam_min + lam[None, :] + 1.0)
    den_off = omega[:, None] * (lam_min - lam[None, :])
    if walk:
        values[:, active] = -(xa ** lam_min) / math.pi * _walk_integrals(num_off, den_off).imag
        values[0, active] = xa ** lam[0]  # overwrites the contour's row 0
        return values

    panel_order, laguerre_order = _FULL
    lag = gauss_laguerre(laguerre_order)
    if plan is None:
        plan = ContourPlan()  # a throwaway: this evaluation chooses its own contour
    if plan.theta is None:
        plan.theta = _theta_search(lam, lam_min, omega).theta
    theta = plan.theta
    num_off -= theta[:, None]
    den_off -= theta[:, None]
    amplitude = xa ** lam_min * np.exp(theta)

    if plan.levels is None:
        plan.levels = _segment_levels(num_off, den_off, amplitude, theta, lag)
    levels = plan.levels
    tails = _tail_integrals(num_off, den_off, levels, lag)

    for level in np.unique(levels):
        in_level = np.flatnonzero(levels == level)
        segment = _PANEL_WIDTH * _PANEL_COUNT * 2.0 ** int(level)
        first = _first_panel_width(theta[in_level])
        t_panel, w_panel, phase = _panel_grid(first, segment, panel_order)
        scale, columns = amplitude[in_level] / math.pi, active[in_level]
        for start, block in _kernel_sweep(t_panel, 0.0, num_off[in_level], den_off[in_level], phase):
            rows = slice(start, start + len(block))
            values[rows, columns] = scale * (_contract(block, w_panel) + tails[rows, in_level]).imag
    values[0, active] = xa ** lam[0]  # overwrites the contour's row 0
    return values


def _check_point(x: float) -> float:
    x = _as_real(x, DomainError, "evaluation point")
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
    shifted = (lam + 0.5 * _as_beta(beta)).reshape((-1,) + (1,) * (vals.ndim - 1))
    # the recurrence's additions in its own order, so one running sum makes
    # them all: x L_n' is the partial sum after term 2n of
    # s_0 L_0, s_1 L_1, (1 + s_0) L_0, s_2 L_2, (1 + s_1) L_1, ...
    terms = np.empty((2 * lam.size - 1, *vals.shape[1:]))
    terms[0] = shifted[0] * vals[0]
    terms[1::2] = shifted[1:] * vals[1:]
    terms[2::2] = (1.0 + shifted[:-1]) * vals[:-1]
    return np.add.accumulate(terms, axis=0)[0::2]
