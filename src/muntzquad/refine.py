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
would merge once ``beta/2`` dwarfs the gaps.  Each row is one exact dot
product, rounded once: the sum (``mpf_sum``) of exact products, as
``mp.fdot`` forms it.  Working precision scales with the
sequence length, since the expansion's cancellation grows with it; the
moments ``mu_n`` come from ``muntz.moment_recurrence`` at that same
precision.

Every operation calls a raw ``mpmath.libmp`` kernel (``mpf_mul``,
``mpf_add``, ``mpf_div``, ``mpf_exp``, ``mpf_log``, ``mpf_sum``) on number
tuples, rounded to nearest at the working precision: the results are those
of mpmath numbers bit for bit, without their per-object overhead.  The
difference of a row and its moment is rounded to a double as ``float`` of
an mpmath number does, to nearest.

``muntz.eval_all`` takes its basis values from the same table, as the
residual of a one-node rule with weight 1 against zero moments.

The Newton directions themselves stay in ordinary double arithmetic:
direction errors only perturb the path, not the limit, so the polish solves
against one Jacobian throughout, the one of the ``alpha = 1`` solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import libmp
from mpmath.libmp import from_float, mpf_add, mpf_div, mpf_exp, mpf_log, mpf_mul, mpf_sub, mpf_sum

from .muntz import moment_recurrence

# Every arbitrary-precision operation rounds to nearest, as mpmath numbers do.
_RND = libmp.round_nearest


def _node_sums(exponents, orders, nodes, weights, prec):
    """``T[i][j] = sum_k w_k x_k**lam_i log(x_k)**j / j!`` for the ascending
    distinct exponents ``lam_i``, each power chained from the one before."""
    logs = [mpf_log(from_float(float(x)), prec, _RND) for x in nodes]
    terms = [
        mpf_mul(mpf_exp(mpf_mul(exponents[0], ln_x, prec, _RND), prec, _RND), from_float(float(w)), prec, _RND)
        for ln_x, w in zip(logs, weights)
    ]
    steps = {}  # gap -> exp(gap * log x_k) per node
    sums = []
    for i, order in enumerate(orders):
        if i:
            gap = mpf_sub(exponents[i], exponents[i - 1], prec, _RND)
            if gap not in steps:
                steps[gap] = [mpf_exp(mpf_mul(gap, ln_x, prec, _RND), prec, _RND) for ln_x in logs]
            terms = [mpf_mul(term, step, prec, _RND) for term, step in zip(terms, steps[gap])]
        row, powered = [mpf_sum(terms, prec, _RND)], terms
        for j in range(1, order):
            divisor = libmp.from_int(j)
            powered = [mpf_div(mpf_mul(term, ln_x, prec, _RND), divisor, prec, _RND)
                       for term, ln_x in zip(powered, logs)]
            row.append(mpf_sum(powered, prec, _RND))
        sums.append(row)
    return sums


@dataclass(frozen=True)
class PoleExpansion:
    """Everything of the polish residual that depends on the exponents only.

    ``exponents`` lists the distinct exponents in ascending order, whose
    poles are ``lam + beta/2``, and ``orders`` each one's final
    multiplicity.  ``rows[n]`` lists, per pole index ``i`` present in prefix
    ``n``, the pair ``(i, [h_{m-1-j} for j < m])`` for the multiplicity
    ``m`` of that pole in the prefix; ``moments`` holds the exact moments.
    Every number of the table is a raw ``mpmath.libmp`` value at ``prec``
    bits.
    """

    prec: int
    exponents: list
    orders: list
    rows: list
    moments: list


def pole_expansion(exponents, beta: float, prec: int | None = None) -> PoleExpansion:
    """The residual's exponent-only table: working precision, distinct
    exponents with their multiplicities, each row's Taylor coefficients and
    the exact moments.

    ``prec`` is the working precision in bits, by default that of
    ``30 + 1.2*len(exponents)`` digits."""
    lam = np.asarray(exponents, dtype=float)
    prec = prec or libmp.dps_to_prec(30 + int(1.2 * lam.size))
    beta_q = from_float(float(beta))
    half_beta = libmp.mpf_shift(beta_q, -1)
    distinct, at = np.unique(lam, return_inverse=True)
    exponents = [from_float(float(v)) for v in distinct]
    poles = [mpf_add(v, half_beta, prec, _RND) for v in exponents]
    # the pole index of each exponent, and each pole's final multiplicity
    at, orders = at.tolist(), np.bincount(at).tolist()

    series = [[libmp.fone] + [libmp.fzero] * (m - 1) for m in orders]
    count = [0] * len(poles)
    rows = []
    for n, k in enumerate(at):
        shift = mpf_add(poles[at[n - 1]], libmp.fone, prec, _RND) if n else None  # numerator t + shift
        for i, (p, h) in enumerate(zip(poles, series)):
            if n:
                c = mpf_add(p, shift, prec, _RND)
                for j in range(len(h) - 1, 0, -1):
                    h[j] = mpf_add(mpf_mul(c, h[j], prec, _RND), h[j - 1], prec, _RND)
                h[0] = mpf_mul(h[0], c, prec, _RND)
            if i == k:  # denominator factor t - p
                count[i] += 1
            else:
                d = mpf_sub(exponents[i], exponents[k], prec, _RND)
                h[0] = mpf_div(h[0], d, prec, _RND)
                for j in range(1, len(h)):
                    h[j] = mpf_div(mpf_sub(h[j], h[j - 1], prec, _RND), d, prec, _RND)
        rows.append([(i, h[count[i] - 1 :: -1]) for i, h in enumerate(series) if count[i]])
    moments = moment_recurrence(lam, beta, prec)
    return PoleExpansion(prec, exponents, orders, rows, moments)


def exact_residual(nodes, weights, expansion: PoleExpansion) -> np.ndarray:
    """Moment-matching residual at a rule, from the table of ``pole_expansion``
    for its exponents; computed in arbitrary precision and rounded."""
    prec = expansion.prec
    sums = _node_sums(expansion.exponents, expansion.orders, nodes, weights, prec)
    residual = np.empty(len(expansion.rows))
    for n, (row, moment) in enumerate(zip(expansion.rows, expansion.moments)):
        # exact products, one rounding for the whole row, as ``mp.fdot``
        q = mpf_sum([mpf_mul(h[j], sums[i][j]) for i, h in row for j in range(len(h))], prec, _RND)
        residual[n] = libmp.to_float(mpf_sub(q, moment, prec, _RND), rnd=_RND)
    return residual
