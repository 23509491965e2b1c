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

for any multiplicity.  Working precision scales with the sequence length,
since the expansion's cancellation grows with it; the moments ``mu_n`` come
from ``muntz.moment_recurrence`` at that same precision.  The Newton directions
themselves stay in ordinary double arithmetic: direction errors only
perturb the path, not the limit, so the polish solves against one
Jacobian throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .muntz import moment_recurrence


def _node_sums(orders, nodes, weights, beta_q):
    """``T[p][j] = sum_k x_k**(-beta/2) w_k x_k**p log(x_k)**j / j!``."""
    xs = [mp.mpf(float(x)) for x in nodes]
    logs = [mp.log(x) for x in xs]
    factors = [x ** (-beta_q / 2) * mp.mpf(float(w)) for x, w in zip(xs, weights)]
    sums = {}
    for p in orders:
        terms = [f * x**p for f, x in zip(factors, xs)]
        row = [mp.fsum(terms)]
        for j in range(1, orders[p]):
            terms = [term * ln_x / j for term, ln_x in zip(terms, logs)]
            row.append(mp.fsum(terms))
        sums[p] = row
    return sums


@dataclass(frozen=True)
class PoleExpansion:
    """Everything of the polish residual that depends on the exponents only.

    ``rows[n]`` lists, per pole ``p`` present in prefix ``n``, the pair
    ``(p, [h_{m-1-j} for j < m])`` for the multiplicity ``m`` of ``p`` in
    that prefix; ``orders`` holds each pole's final multiplicity and
    ``moments`` the exact moments, all at ``digits`` working digits.
    """

    digits: int
    beta: mp.mpf
    orders: dict
    rows: list
    moments: list


def pole_expansion(exponents, beta: float) -> PoleExpansion:
    """The residual's exponent-only table: working precision, poles with their
    multiplicities, each row's Taylor coefficients and the exact moments."""
    lam = np.asarray(exponents, dtype=float)
    digits = 30 + int(1.2 * lam.size)
    with mp.workdps(digits):
        beta_q = mp.mpf(beta)
        shifted = [mp.mpf(v) + beta_q / 2 for v in lam]
        poles = sorted(set(shifted))
        orders = {p: shifted.count(p) for p in poles}  # final multiplicity = series length

        series = {p: [mp.mpf(1)] + [mp.mpf(0)] * (orders[p] - 1) for p in poles}
        count = dict.fromkeys(poles, 0)

        def denominator_step(value):
            for p in poles:
                if p == value:
                    count[p] += 1
                    continue
                h, d = series[p], p - value
                h[0] /= d
                for i in range(1, len(h)):
                    h[i] = (h[i] - h[i - 1]) / d

        def numerator_step(value):
            for p in poles:
                h, c = series[p], p + value + 1
                for i in range(len(h) - 1, 0, -1):
                    h[i] = c * h[i] + h[i - 1]
                h[0] *= c

        rows = []
        for n in range(lam.size):
            if n:
                numerator_step(shifted[n - 1])
            denominator_step(shifted[n])
            rows.append([(p, series[p][count[p] - 1 :: -1]) for p in poles if count[p]])
        moments = moment_recurrence(lam, beta_q)
    return PoleExpansion(digits, beta_q, orders, rows, moments)


def exact_residual(nodes, weights, expansion: PoleExpansion) -> np.ndarray:
    """Moment-matching residual at a rule, from the table of ``pole_expansion``
    for its exponents; computed in arbitrary precision and rounded."""
    with mp.workdps(expansion.digits):
        sums = _node_sums(expansion.orders, nodes, weights, expansion.beta)
        residual = np.empty(len(expansion.rows))
        for n, (row, moment) in enumerate(zip(expansion.rows, expansion.moments)):
            q = mp.fsum(h[j] * sums[p][j] for p, h in row for j in range(len(h)))
            residual[n] = float(q - moment)
    return residual
