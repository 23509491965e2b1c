"""Stable evaluation of Muntz-Legendre bases and their exact moments.

A Muntz system ``{x**l0, ..., x**lN}`` generally admits no three-term
recurrence, so the orthogonal basis elements are computed from their
contour-integral representation, a contour around the exponents of ``x**t``
times a rational kernel.  Substituting ``t = lam_min - zeta/w`` with
``w = -log x`` turns it into the Bromwich form

    L_n(x) = -x**lam_min (1/2 pi i) integral e**zeta F_n(zeta) dzeta,

whose poles ``-w*(lam - lam_min)`` lie on the negative real axis.  The path
is deformed to a hyperbola left of them, ``zeta(phi) = mu*(1 + sin(i*phi - a))``,
on which the midpoint rule in ``phi`` converges geometrically (Weideman &
Trefethen, *Math. Comp.* 76, 2007; Trefethen, Weideman & Schmelzer, *BIT* 46,
2006).  Nothing is singular as ``w -> 0``: the poles merge at the origin and
every kernel factor tends to 1.

Each point takes the hyperbola through ``base`` moved right by
``w*max(0, lam_min)``, so that it crosses the real axis at ``zeta0 = base +
w*max(0, lam_min)``, that is at ``t = min(0, lam_min) - base/w``.  A point's
contour thus depends on that point alone, and its values do not depend on the
batch it came in.  A crossing fixed at ``base`` loses digits once
``lam_min > 0`` (2e-10 at x = 1e-2 on a triple pole); a hyperbola scaled
through ``zeta0`` instead of moved leaves its samples too sparse for
``e**zeta`` once ``zeta0`` grows far beyond them.
Two tables size the shape by the basis row count.  The rule solver's
homotopy walk throws its intermediate rules away, so its Newton solves stop
at 1e-5 and run on the walk tier, ``_WALK_SHAPES``; the ``alpha = 1`` solve
and the polish Jacobian run on the full tier, ``_FULL_SHAPES``, whose angle
shrinks and whose samples grow with the rows.  ``eval_all`` takes neither: it
sums the residues of ``refine``'s pole expansion in arbitrary precision.

Because ``f_{n+1}`` is ``f_n`` times a single rational factor, one sweep of
updates over the sampled integrand yields the whole basis at a point for the
cost of the last element.  One function, ``_hyperbola_values``, runs that
sweep for both tiers, batched across the evaluation points of the rule
solver's ``assemble``; it runs basis-major, so each update multiplies one
contiguous ``(points, samples)`` slab.  The rows stream through one reused
block buffer of about ``_BLOCK_SAMPLES`` samples, the last row of a block
carries into the next, and each block is contracted with the weights as
soon as it is formed, so no ``(basis, points, samples)`` array is ever
formed.

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
from dataclasses import replace

import numpy as np
from mpmath import libmp
from mpmath.libmp import mpf_add, mpf_div, mpf_mul

from .errors import DomainError, InadmissibleSequenceError, LengthMismatchError, _as_real


# The hyperbola of each evaluator tier as (row bound, base, angle, samples),
# the first row bound the basis row count meets: a point's curve crosses the
# real axis at ``base + w*max(0, lam_min)`` and is cut where ``Re(zeta)`` has
# fallen ``_DECAY`` below that, so its last samples are damped by about
# e**-45.  The walk tier's solves stop at 1e-5; the full tier needs a smaller
# angle and more samples as the rows grow to keep its residue-sum errors.
_DECAY = 45.0
_WALK_SHAPES = ((80, 8.0, 0.5, 48), (120, 8.0, 0.35, 64), (math.inf, 8.0, 0.2, 128))
_FULL_SHAPES = ((24, 2.0, 0.5, 64), (48, 2.0, 0.3, 128), (96, 2.0, 0.2, 256), (math.inf, 2.0, 0.1, 512))
# The kernel sweep runs through blocks of basis rows holding about this many
# complex samples (256 KB), so a block and its temporaries stay in cache.
_BLOCK_SAMPLES = 16384


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


def _block_rows(n_basis: int, n_points: int, samples: int) -> list:
    """Row counts of the sweep's consecutive blocks of basis rows.

    A block holds about ``_BLOCK_SAMPLES`` samples and at least two rows: a
    one-row remainder joins the first block, so no contraction of a block is
    a one-row matvec.  With OpenBLAS 0.3.31 a ``(1, K)`` matvec rounds
    differently from the same row inside a taller matrix (random complex rows
    at every K from 2 to 399), while blocks of two or more rows match, so a
    row's value does not depend on the block it was swept in.
    """
    rows = max(2, _BLOCK_SAMPLES // (n_points * samples))
    head = n_basis if n_basis <= rows + 1 else rows + (n_basis % rows == 1)
    return [head] + [min(rows, n_basis - start) for start in range(head, n_basis, rows)]


def _hyperbola_values(lam, omega, shapes) -> np.ndarray:
    """Basis values ``[n, i]`` at the points of frequencies ``omega``, swept
    block by block and each block contracted as soon as it is formed.

    The contour is the midpoint rule in ``phi`` on the upper half of the
    hyperbola ``zeta(phi) = mu*(1 + sin(i*phi - angle))`` through ``base``
    (Weideman & Trefethen, *Math. Comp.* 76, 2007), cut where ``Re(zeta)``
    has fallen ``_DECAY`` below ``base``, with ``(base, angle, samples)`` from
    ``shapes`` for the row count.  Point i takes it moved right by
    ``s_i = omega_i*max(0, lam_min)``, so that it crosses the real axis at
    ``zeta0_i = base + s_i``: moved, not scaled, so that ``samples`` keep
    resolving ``e**zeta`` however far it moves.  The weights
    ``i*h*e**(zeta - zeta0)*zeta'(phi)`` hold the exponential and the
    Jacobian and are the same for every point, and ``L_n(x)`` is
    ``-x**lam_min * e**zeta0 / pi`` times the integral's imaginary part, the
    amplitude formed as ``exp(zeta0 - lam_min*omega)`` so that neither factor
    overflows alone.

    In the variable ``-i*zeta = u + iv``, ``u = Im(zeta) > 0`` per sample and
    ``v = -(s_i + Re(zeta))`` per point and sample.  Factors after the first
    are built in real arithmetic, divided through by ``u``; a running product
    over the basis rows sweeps the whole basis, one contiguous
    ``(points, samples)`` slab per step, through one reused block buffer whose
    last row carries into the next block's first.  Each block is contracted
    as one 2-D matvec, whose rows round alike in any batch (``_block_rows``
    makes no one-row block), so a point's values do not depend on the batch
    it came in.  An overflowed kernel sample comes out non-finite, and so
    does its row's value, without a warning.
    """
    base, angle, samples = next(shape[1:] for shape in shapes if lam.size <= shape[0])
    lam_min = float(np.min(lam))
    shift = omega * max(0.0, lam_min)
    mu = base / (1.0 - math.sin(angle))
    h = math.acosh(1.0 + _DECAY / (mu * math.sin(angle))) / samples
    phi = h * (np.arange(samples) + 0.5)
    zeta = mu * (1.0 + np.sin(1j * phi - angle))
    weights = 1j * h * np.exp(zeta - base) * (1j * mu * np.cos(1j * phi - angle))
    u, v = zeta.imag, -(shift[:, None] + zeta.real)
    num_off = omega[:, None] * (lam_min + lam[None, :] + 1.0)
    den_off = omega[:, None] * (lam_min - lam[None, :])
    # factor n > 0 is (u + i(v + a[n-1])) / (u + i(v + b[n-1])), that is
    # (u + (v+a)(v+b)/u + i(a-b)) / (u + (v+b)^2/u)
    a = num_off.T[:-1, :, None]
    b = den_off.T[1:, :, None]
    a_minus_b = a - b
    inv_u = 1.0 / u
    sizes = _block_rows(lam.size, omega.size, samples)
    block = np.empty((sizes[0], omega.size, samples), dtype=complex)
    den, re = np.empty(block.shape), np.empty(block.shape)
    carry = np.empty(block.shape[1:], dtype=complex)
    block[0] = 1.0 / (u + 1j * (v + den_off[:, :1]))
    values = np.empty((lam.size, omega.size))
    start = 0
    # a pole height |v + b| beyond 1e154 overflows its square, and the factor
    # comes out 0 + 0i (NaN if |v + a| overflows too); its size is |u + i(v + a)| / |v + b|
    with np.errstate(over="ignore", invalid="ignore"):
        for size in sizes:
            stop = start + size
            out = block[:size]
            lo = max(start, 1)  # the block's first row with a rational factor
            rational = slice(lo - 1, stop - 1)
            vb = v + b[rational]
            va = v + a[rational]
            va *= vb
            vb *= vb
            den_n = np.multiply(vb, inv_u, out=den[: stop - lo])
            den_n += u
            re_n = np.multiply(va, inv_u, out=re[: stop - lo])
            re_n += u
            re_n /= den_n
            factors = out[lo - start :]
            factors.real = re_n
            np.divide(a_minus_b[rational], den_n, out=factors.imag)
            # freed before the next block forms its own, so that it can reuse their memory
            del va, vb
            slabs = list(out)
            if start:
                np.multiply(slabs[0], carry, out=slabs[0])
            for previous, slab in zip(slabs, slabs[1:]):
                np.multiply(slab, previous, out=slab)
            np.copyto(carry, slabs[-1])
            values[start:stop] = (out.reshape(-1, samples) @ weights).reshape(size, -1).imag
            start = stop
    return values * (-np.exp(base + shift - lam_min * omega) / math.pi)


def _basis_batch(shifted, xs, walk: bool = False):
    """Basis values ``values[n, i]`` of the (already shifted) exponents at the
    points ``xs`` in (0, 1), from ``_hyperbola_values``: the walk tier
    (``walk``) with ``_WALK_SHAPES``, the full tier with ``_FULL_SHAPES``.
    Row 0 is the exact power."""
    lam = _as_exponents(shifted)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    values = _hyperbola_values(lam, -np.log(xs), _WALK_SHAPES if walk else _FULL_SHAPES)
    values[0] = xs ** lam[0]  # exact, and overwrites the contour's row 0
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
    shifted by ``beta/2``: the residue sums of ``refine.pole_expansion``,
    taken as the exact residual of a one-node rule with weight 1 against
    zero moments, each rounded once, at any ``x`` and ``beta``.  Close
    exponents make the residues cancel by more digits than the expansion's
    default precision holds (30 exponents 1e-3 apart: terms of 1e78 at 67
    digits), so the sums are taken again at twice the precision until two
    successive precisions round to the same values; at ``x = 1`` every
    value rounds to exactly 1.
    """
    from . import refine  # refine imports this module

    lam = ensure_admissible(exponents, beta)
    x = _check_point(x)
    values, prec = None, None
    while True:
        expansion = refine.pole_expansion(lam, beta, prec)
        sums = refine.exact_residual([x], [1.0], replace(expansion, moments=[libmp.fzero] * lam.size))
        if np.array_equal(sums, values):
            return sums
        values, prec = sums, 2 * expansion.prec


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
