"""Bias-free residual evaluation for the final polish of a solved rule.

The moment-matching residual at a nearly converged rule lives deep in a
near-null direction of its Jacobian: displacements of the smallest weight
by one part in 1e11 change the residual by barely a few ulps.  Any fixed
systematic in a double-precision evaluator therefore parks the solved rule
up to ~1e-11 away from the true one.  The acceptance targets for published
reference rules sit inside that wander radius, so the last Newton steps
use a residual computed in arbitrary precision from the closed-form pole
expansion of the basis.

Each basis element is the sum of the residues of ``x**t R_n(t)`` over the
distinct poles ``p`` of its rational kernel.  At a pole of multiplicity
``m`` the residue is

    x**p * sum_{j<m} h_{m-1-j} log(x)**j / j!,

where ``h_i`` are the Taylor coefficients of ``(t-p)**m R_n(t)`` in
``t-p``.  They follow from one recurrence over the exponents: a numerator
factor ``t+v+1`` multiplies the series by ``(t-p) + (p+v+1)``, a
denominator factor ``t-q`` divides it by ``(t-p) + (p-q)`` or, when
``q = p``, raises ``m``.  A numerator factor that vanishes at a pole is
just a zero coefficient.  Nothing of this depends on the nodes, so
``pole_expansion`` builds the table once per rule and ``exact_residual``
reuses it at every polish iterate, contracting over the nodes first,

    residual_n = sum_{p,j} h_{n,p,m-1-j} T_{p,j} - mu_n,
    T_{p,j} = sum_k x_k**(-beta/2) w_k x_k**p log(x_k)**j / j!,

for any multiplicity.  Since ``x**(-beta/2) x**p`` is ``x**lam`` for the
pole ``p = lam + beta/2``, the node sums take one logarithm per node and
walk the exponents in ascending order: each power ``x_k**lam`` is the one
before times ``exp(gap*log(x_k))``, one exponential per node and distinct
gap.  The differences of poles, in the node sums and in the table alike,
are those of the exponents: the poles, rounded at the working precision,
would merge once ``beta/2`` dwarfs the gaps.

The arithmetic is on plain Python integers.  Every number is a
``(mantissa, exponent)`` pair worth ``mantissa * 2**exponent``.  Exponents
and ``beta`` are doubles, so after one common power-of-two scale every
numerator factor ``p_i + p_j + 1`` and every denominator ``lam_i - lam_k``
is an exact integer.  Each table coefficient, and each moment ``mu_n`` of
``moment_recurrence``, is a product of those integers divided with one
rounding to nearest, kept at the working width: the working precision plus
``_GUARD`` bits.  The node sums keep libmp's ``mpf_log`` and ``mpf_exp``
for the powers and do their products and sums on integers.  Every sum
aligns its terms in fixed point, twice the working width below the largest
one's leading bit, so a term entirely below that point drops out, as
``mpf_sum`` drops it: ``x**1e7`` never becomes a giant integer.  Each row
is one dot product of exact products, summed so and rounded to a double
once together with its moment.  So libmp stays only for the logarithms,
the exponentials and the conversions; ``classical`` shares these pairs and
helpers, the package's one extended-precision arithmetic.

The working precision is that of ``30 + 1.2*len`` digits, since the
expansion's cancellation grows with the sequence length.  Close exponents
cancel by more: a row's terms reach the largest table coefficient ``|h|``
(about 1e31 at 12 exponents ``1 + k*1e-3``).  A table that needs more than
``_SPARE_DIGITS + log10 max|h|`` digits is built once more at that
precision.

The same row sums at a one-node rule with weight 1, without the moments,
are the basis values themselves: ``eval_all``, the package's public
evaluator, takes them from this table.

The Newton directions themselves stay in ordinary double arithmetic:
direction errors only perturb the path, not the limit, so the polish solves
against one Jacobian throughout, the one of the ``alpha = 1`` landing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from mpmath import libmp
from mpmath.libmp import from_float, from_man_exp, mpf_exp, mpf_log

from .errors import DomainError, _as_real
from .muntz import ensure_admissible

# libmp's logarithms, exponentials and conversions round to nearest, as
# mpmath numbers do.
_RND = libmp.round_nearest
# Bits that every truncated operation keeps beyond the working precision.
_GUARD = 16
# Digits a row keeps beyond the cancellation of its largest table term: a
# table whose largest coefficient |h| needs more than
# ``_SPARE_DIGITS + log10(max |h|)`` digits is rebuilt at that precision.
_SPARE_DIGITS = 20


def _unpack(value) -> tuple:
    """A raw libmp number as an exact ``(mantissa, exponent)`` pair."""
    sign, man, exp, _ = value
    return (-man if sign else man), exp


def _pair(x: float) -> tuple:
    """A double as an exact ``(mantissa, exponent)`` pair."""
    return _unpack(from_float(float(x)))


def _double(m: int, e: int) -> float:
    """``m * 2**e`` rounded to the nearest double."""
    return libmp.to_float(from_man_exp(m, e, 53, _RND))


def _round(m: int, s: int) -> int:
    """``m * 2**-s`` rounded to nearest, ties up, for ``s >= 1``: two shifts,
    so that a term far below the point never becomes a giant integer."""
    return ((m >> (s - 1)) + 1) >> 1


def _trunc(m: int, e: int, width: int) -> tuple:
    """``m * 2**e`` rounded to nearest at ``width`` bits of mantissa."""
    excess = m.bit_length() - width
    return (_round(m, excess), e + excess) if excess > 0 else (m, e)


def _div(m: int, e: int, d: int, width: int) -> tuple:
    """``m * 2**e / d`` for an integer ``d != 0``, rounded to nearest at about
    ``width`` bits: the quotient floored one bit further, then rounded."""
    k = width + 1 + d.bit_length() - m.bit_length()
    q = (m << k) // d if k >= 0 else m // (d << -k)
    return (q + 1) >> 1, e - k + 1


def _sum(terms, width: int) -> tuple:
    """Sum of ``(mantissa, exponent)`` pairs in fixed point, ``2*width`` bits
    below the largest term's leading bit: exact for every term above that
    point, rounded to nearest below it.  A term entirely below it drops out,
    as ``mpf_sum`` drops it, so that a tiny power such as ``x**1e7`` never
    becomes a giant aligned integer."""
    tops = [e + m.bit_length() for m, e in terms if m]
    if not tops:
        return 0, 0
    base = max(tops) - 2 * width
    return sum(m << (e - base) if e >= base else _round(m, base - e) for m, e in terms), base


def _scaled_integers(values) -> tuple:
    """Doubles as exact integers over one common power of two: ``(ints,
    scale)`` with ``values[i] == ints[i] * 2**-scale``."""
    ratios = [float(v).as_integer_ratio() for v in values]
    scale = max(den for _, den in ratios).bit_length() - 1
    return [num << (scale - den.bit_length() + 1) for num, den in ratios], scale


def _node_sums(exponents, orders, nodes, weights, width):
    """``T[i][j] = sum_k w_k x_k**lam_i log(x_k)**j / j!`` for the ascending
    distinct exponents ``lam_i``, each power chained from the one before.
    The exponents are exact pairs on one common binary exponent."""
    logs = [_unpack(mpf_log(from_float(float(x)), width, _RND)) for x in nodes]

    def powers(lam_m, lam_e):
        """``exp(lam * log x_k)`` per node, from the exact product."""
        return [_unpack(mpf_exp(from_man_exp(lam_m * m, lam_e + e), width, _RND)) for m, e in logs]

    terms = [_trunc(pm * wm, pe + we, width) for (pm, pe), (wm, we)
             in zip(powers(*exponents[0]), map(_pair, weights))]
    steps = {}  # gap -> exp(gap * log x_k) per node
    sums = []
    for i, order in enumerate(orders):
        if i:
            gap = (exponents[i][0] - exponents[i - 1][0], exponents[i][1])
            if gap not in steps:
                steps[gap] = powers(*gap)
            terms = [_trunc(tm * sm, te + se, width) for (tm, te), (sm, se) in zip(terms, steps[gap])]
        row, powered = [_trunc(*_sum(terms, width), width)], terms
        for j in range(1, order):
            powered = [_trunc(pm * lm, pe + le, width) for (pm, pe), (lm, le) in zip(powered, logs)]
            row.append(_div(*_sum(powered, width), math.factorial(j), width))
        sums.append(row)
    return sums


@dataclass(frozen=True)
class PoleExpansion:
    """Everything of the polish residual that depends on the exponents only.

    ``exponents`` lists the distinct exponents in ascending order, whose
    poles are ``lam + beta/2``, as exact ``(mantissa, exponent)`` pairs on
    one common binary exponent, and ``orders`` each one's final
    multiplicity.  ``rows[n]`` lists, per pole index ``i`` present in prefix
    ``n``, the pair ``(i, [h_{m-1-j} for j < m])`` for the multiplicity
    ``m`` of that pole in the prefix, each coefficient a ``(mantissa,
    exponent)`` pair of ``prec`` plus ``_GUARD`` bits; ``moments`` holds the
    moments of ``moment_recurrence`` as pairs of the same width.
    """

    prec: int
    exponents: list
    orders: list
    rows: list
    moments: list


def default_prec(size: int) -> int:
    """The expansion's default working precision for ``size`` exponents, in
    bits: that of ``30 + 1.2*size`` digits."""
    return libmp.dps_to_prec(30 + int(1.2 * size))


def _table(lam, beta, scale, at, orders, width):
    """The rows of ``PoleExpansion`` from the exponents ``lam`` and ``beta``
    as exact integers times ``2**-scale``: every numerator factor ``c`` and
    denominator ``d`` is an exact integer, each coefficient is multiplied
    exactly and divided with one truncation to ``width`` bits."""
    series = [[(1, 0)] + [(0, 0)] * (m - 1) for m in orders]
    count = [0] * len(orders)
    rows = []
    for n, k in enumerate(at):
        shift = lam[at[n - 1]] + beta + (1 << scale) if n else None  # numerator t + shift
        for i, (v, h) in enumerate(zip(lam, series)):
            c = v + shift if n else None
            d = v - lam[k]
            if d == 0:  # denominator factor t - p
                count[i] += 1
            if len(h) == 1:  # a simple pole: h_0 * c / d, truncated once
                m, e = h[0]
                if m:
                    if n:
                        m, e = m * c, e - scale
                    h[0] = _div(m, e + scale, d, width) if d else _trunc(m, e, width)
                continue
            # a multiple pole: times (t - p) + c, then divided by (t - p) + d,
            # each coefficient from the exact products, truncated once
            for j, (m, e) in enumerate(h):
                old = m, e
                if n:
                    m, e = m * c, e - scale
                if j:
                    terms = [(m, e), below] if n else [(m, e)]
                    if d:
                        terms.append((-h[j - 1][0], h[j - 1][1]))
                    m, e = _sum(terms, width)
                h[j] = _div(m, e + scale, d, width) if d else _trunc(m, e, width)
                below = old
        rows.append([(i, h[count[i] - 1 :: -1]) for i, h in enumerate(series) if count[i]])
    return rows


def pole_expansion(exponents, beta: float, prec: int | None = None) -> PoleExpansion:
    """The residual's exponent-only table: working precision, distinct
    exponents with their multiplicities, each row's Taylor coefficients and
    the exact moments.

    ``prec`` is the working precision in bits, by default ``default_prec``.
    A table whose largest coefficient ``|h|`` needs more, ``_SPARE_DIGITS +
    log10 |h|`` digits, is built once more at that precision."""
    lam = np.asarray(exponents, dtype=float)
    prec = prec or default_prec(lam.size)
    distinct, at = np.unique(lam, return_inverse=True)
    # the pole index of each exponent, and each pole's final multiplicity
    at, orders = at.tolist(), np.bincount(at).tolist()
    (*ints, beta_int), scale = _scaled_integers([*distinct.tolist(), beta])
    table = (ints, beta_int, scale, at, orders)
    rows = _table(*table, prec + _GUARD)
    top = max(e + m.bit_length() for row in rows for _, h in row for m, e in h if m)
    needed = libmp.dps_to_prec(math.ceil(_SPARE_DIGITS + top * math.log10(2.0)))
    if needed > prec:
        prec = needed
        rows = _table(*table, prec + _GUARD)
    moments = moment_recurrence(lam, beta, prec + _GUARD)
    return PoleExpansion(prec, [(v, -scale) for v in ints], orders, rows, moments)


def moment_recurrence(exponents, beta: float, prec: int) -> list:
    """Weighted moments ``integral_0^1 L_n^beta(x) x**beta dx`` as pairs,
    each rounded to nearest once at ``prec`` bits.

    Closed-form ratio recurrence: the first moment is ``1/(1+lam_0+beta)``,
    each later one the previous times ``-lam_{n-1}/(1+lam_n+beta)``, so a
    leading exponent 0 kills every later one (orthogonality to constants).
    Over one power of two every factor is an exact integer, and moment ``n``
    is the quotient of two exact products, divided once.
    """
    (*lam, b), scale = _scaled_integers([*exponents, beta])
    one = 1 << scale
    num, den, out = one, 1, []
    for v in lam:
        den *= one + v + b
        out.append(_div(num, 0, den, prec))
        num *= -v
    return out


def moments(exponents, beta: float) -> np.ndarray:
    """All weighted moments at once, as doubles: each pair of
    ``moment_recurrence`` at 40 digits, rounded once more."""
    lam = ensure_admissible(exponents, beta)
    return np.array([_double(*m) for m in moment_recurrence(lam, beta, libmp.dps_to_prec(40))])


def exact_residual(nodes, weights, expansion: PoleExpansion) -> np.ndarray:
    """Moment-matching residual at a rule, from the table of ``pole_expansion``
    for its exponents: each row's residue sum less its moment,
    ``sum_{p,j} h_{n,p,m-1-j} T_{p,j} - mu_n``, one ``_sum`` of exact
    products, rounded once to a double."""
    width = expansion.prec + _GUARD
    sums = _node_sums(expansion.exponents, expansion.orders, nodes, weights, width)
    out = []
    for row, (m, e) in zip(expansion.rows, expansion.moments):
        terms = [(hm * tm, he + te) for i, h in row for (hm, he), (tm, te) in zip(h, sums[i])]
        terms.append((-m, e))
        out.append(_double(*_sum(terms, width)))
    return np.array(out)


def _check_point(x: float) -> float:
    x = _as_real(x, DomainError, "evaluation point")
    if not (0.0 < x <= 1.0) or not np.isfinite(x):
        raise DomainError(f"evaluation point must lie in (0, 1], got {x}")
    return x


def eval_all(exponents, x: float, beta: float = 0.0) -> np.ndarray:
    """Basis values ``L_0(x), ..., L_N(x)`` of the family orthogonal under
    weight ``x**beta``.

    These are ``x**(-beta/2)`` times the unit-weight basis of the exponents
    shifted by ``beta/2``: the residue sums of ``pole_expansion``'s rows at
    the one-node rule ``x`` with weight 1, each rounded once, at any ``x``
    and ``beta``.  Close exponents make the residues cancel by more digits
    than the expansion's default precision holds (30 exponents 1e-3 apart:
    terms of 1e78 at 67 digits); ``pole_expansion`` raises its precision
    for them, and the sums are taken again at twice the precision until two
    successive precisions round to the same values; at
    ``x = 1`` every value rounds to exactly 1.  The first precision is the
    default raised by ``log2(1/(gap*|log x|))`` bits for the smallest
    distinct gap: the node sums step each power by ``exp(gap*log x)``,
    which otherwise rounds to exactly 1 at two successive precisions once
    ``gap*|log x|`` falls below both their resolutions, and they agree on a
    wrong value (``L_1`` of ``[0, 1e-100]`` at ``x = 0.5`` read 0).
    """
    lam = ensure_admissible(exponents, beta)
    x = _check_point(x)
    gaps = np.diff(np.unique(lam))
    prec = None
    if gaps.size and x < 1.0:
        extra = int(-math.log2(gaps.min()) - math.log2(-math.log(x)))
        prec = default_prec(lam.size) + extra if extra > 0 else None
    values = None
    while True:
        expansion = pole_expansion(lam, beta, prec)
        sums = exact_residual([x], [1.0], replace(expansion, moments=[(0, 0)] * lam.size))
        if np.array_equal(sums, values):
            return sums
        values, prec = sums, 2 * expansion.prec
