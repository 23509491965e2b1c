"""Stable evaluation of Muntz-Legendre bases.

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
One table, ``_SHAPES``, sizes the shape by the basis row count, and every
Newton solve of the rule solver, its walk and its landing alike, runs on it.
Against residue sums, relative to ``max(1, |L_n|)``, it reads at most 1.2e-13
on 21 rows of ``example1`` and 5.7e-11 on 40 rows at small x, so the landing
stops at 1e-10 and leaves the last digits to the polish's exact residual.
The public basis values, ``refine.eval_all``, do not use it: they sum the
residues of ``refine``'s pole expansion in arbitrary precision, and this
module imports nothing of it.

Because ``f_{n+1}`` is ``f_n`` times a single rational factor, one sweep of
updates over the sampled integrand yields the whole basis at a point for the
cost of the last element.  One function, ``_hyperbola_values``, runs that
sweep, batched across the evaluation points of the rule solver's
``assemble``; it runs basis-major, so each update multiplies one
contiguous ``(points, samples)`` slab.  The rows stream through a block
buffer of about ``_BLOCK_SAMPLES`` samples, the last row of a block
carries into the next, and each block is contracted with the weights as
soon as it is formed, so no ``(basis, points, samples)`` array is ever
formed.  The block and the two real buffers its factors are built in,
about 512 KB together, belong to the calling thread and are kept between
calls: freed, block-sized buffers went back to the kernel, and every call
faulted them in again.  They grow only where two rows of points x samples
exceed ``_BLOCK_SAMPLES`` (about 1.2 MB at n = 150 on 128 samples).

Derivatives never need their own contour pass: ``x * L_n'(x)`` follows from
the values by a two-term recurrence.  The weighted moments follow from a
closed-form ratio recurrence, ``refine.moment_recurrence``, on the exact
integers of ``refine``'s pole expansion, so no numerical integration enters
the solver anywhere.  This module works in doubles only.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .errors import InadmissibleSequenceError, LengthMismatchError, _as_real


# The hyperbola as (row bound, base, angle, samples), the first row bound the
# basis row count meets: a point's curve crosses the real axis at
# ``base + w*max(0, lam_min)`` and is cut where ``Re(zeta)`` has fallen
# ``_DECAY`` below that, so its last samples are damped by about e**-45.
_DECAY = 45.0
_SHAPES = ((80, 8.0, 0.5, 48), (120, 8.0, 0.35, 64), (math.inf, 8.0, 0.2, 128))
# The kernel sweep runs through blocks of basis rows holding about this many
# complex samples (256 KB), so a block and its two real buffers (128 KB each)
# stay in cache.  They live in ``_WORKSPACE``, per thread and kept between
# calls, so no call faults them in again (see ``_workspace``).
_BLOCK_SAMPLES = 16384
_WORKSPACE = threading.local()


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


def _workspace(shape) -> list:
    """The calling thread's complex block and two real buffers, each viewed
    as ``shape``: kept between calls, and replaced by larger ones only when
    ``shape`` outgrows them.  Per thread, so concurrent sweeps never share
    one; every element a sweep reads it has first written in the same call."""
    size = math.prod(shape)
    buffers = getattr(_WORKSPACE, "buffers", None)
    if buffers is None or buffers[0].size < size:
        buffers = _WORKSPACE.buffers = (np.empty(size, dtype=complex), np.empty(size), np.empty(size))
    return [buffer[:size].reshape(shape) for buffer in buffers]


@functools.cache
def _hyperbola(base: float, angle: float, samples: int):
    """``(Re zeta, u, 1/u, weights)`` of the midpoint rule on the hyperbola
    through ``base`` (see ``_hyperbola_values``), ``u = Im zeta``: the same
    for every point and call of one shape, so computed once per shape and
    returned read-only."""
    mu = base / (1.0 - math.sin(angle))
    h = math.acosh(1.0 + _DECAY / (mu * math.sin(angle))) / samples
    phi = h * (np.arange(samples) + 0.5)
    zeta = mu * (1.0 + np.sin(1j * phi - angle))
    weights = 1j * h * np.exp(zeta - base) * (1j * mu * np.cos(1j * phi - angle))
    arrays = (zeta.real.copy(), zeta.imag.copy(), 1.0 / zeta.imag, weights)
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _hyperbola_values(lam, omega) -> np.ndarray:
    """Basis values ``[n, i]`` at the points of frequencies ``omega``, swept
    block by block and each block contracted as soon as it is formed.

    The contour is the midpoint rule in ``phi`` on the upper half of the
    hyperbola ``zeta(phi) = mu*(1 + sin(i*phi - angle))`` through ``base``
    (Weideman & Trefethen, *Math. Comp.* 76, 2007), cut where ``Re(zeta)``
    has fallen ``_DECAY`` below ``base``, with ``(base, angle, samples)`` from
    ``_SHAPES`` for the row count.  Point i takes it moved right by
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
    are built in real arithmetic, divided through by ``u``, in two real
    buffers; a running product over the basis rows sweeps the whole basis,
    one contiguous ``(points, samples)`` slab per step, through a block
    buffer whose last row carries into the next block's first.  The block
    and the real buffers are the calling thread's ``_workspace``, kept
    between calls (about 512 KB), so a warm call allocates no block-sized
    array.  Each block is contracted as one 2-D matvec, whose rows round
    alike in any batch (``_block_rows`` makes no one-row block), so a
    point's values do not depend on the batch it came in.  An overflowed kernel sample comes out non-finite, and so
    does its row's value, without a warning.
    """
    base, angle, samples = next(shape[1:] for shape in _SHAPES if lam.size <= shape[0])
    lam_min = float(np.min(lam))
    shift = omega * max(0.0, lam_min)
    zeta_re, u, inv_u, weights = _hyperbola(base, angle, samples)
    v = -(shift[:, None] + zeta_re)
    num_off = omega[:, None] * (lam_min + lam[None, :] + 1.0)
    den_off = omega[:, None] * (lam_min - lam[None, :])
    # factor n > 0 is (u + i(v + a[n-1])) / (u + i(v + b[n-1])), that is
    # (u + (v+a)(v+b)/u + i(a-b)) / (u + (v+b)^2/u), in real arithmetic.  Per
    # sweep on case3 n = 10/20/30 and example1 n = 20/60, on this table and on
    # a finer one of up to 512 samples: numpy's complex (z + ia)/(z + ib) was
    # 11-23% faster on 9 of 10 cases but failed two integrability-edge builds;
    # 1 + i(a - b)/(z + ib) was 1-14% faster but failed an edge build, two
    # off-floor specs and the [0, 1e200] overflow test; the complex quotient
    # with np.multiply.accumulate for the running product was 11-78% slower.
    a = num_off.T[:-1, :, None]
    b = den_off.T[1:, :, None]
    a_minus_b = a - b
    sizes = _block_rows(lam.size, omega.size, samples)
    block, den, re = _workspace((sizes[0], omega.size, samples))
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
            den_n = np.add(v, b[rational], out=den[: stop - lo])
            re_n = np.add(v, a[rational], out=re[: stop - lo])
            re_n *= den_n
            den_n *= den_n
            den_n *= inv_u
            den_n += u
            re_n *= inv_u
            re_n += u
            factors = out[lo - start :]
            np.divide(re_n, den_n, out=factors.real)
            np.divide(a_minus_b[rational], den_n, out=factors.imag)
            slabs = list(out)
            if start:
                np.multiply(slabs[0], carry, out=slabs[0])
            for previous, slab in zip(slabs, slabs[1:]):
                np.multiply(slab, previous, out=slab)
            np.copyto(carry, slabs[-1])
            values[start:stop] = (out.reshape(-1, samples) @ weights).reshape(size, -1).imag
            start = stop
    return values * (-np.exp(base + shift - lam_min * omega) / math.pi)


def _basis_batch(shifted, xs):
    """Basis values ``values[n, i]`` of the (already shifted) exponents at the
    points ``xs`` in (0, 1), from ``_hyperbola_values``.  Row 0 is the exact
    power."""
    lam = _as_exponents(shifted)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    values = _hyperbola_values(lam, -np.log(xs))
    values[0] = xs ** lam[0]  # exact, and overwrites the contour's row 0
    return values


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
