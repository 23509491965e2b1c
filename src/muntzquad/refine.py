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

for any multiplicity.  The node sums take one logarithm per node and walk
the poles in ascending order: each power ``x_k**p`` is the one before times
``exp(gap*log(x_k))``, one exponential per node and distinct gap.  Each row
is one exact dot product (``mp.fdot``), rounded once.  Working precision
scales with the sequence length, since the expansion's cancellation grows
with it; the moments ``mu_n`` come from ``muntz.moment_recurrence`` at that
same precision.  The Newton directions themselves stay in ordinary double
arithmetic: direction errors only perturb the path, not the limit, so the
polish solves against one Jacobian throughout, the one of the ``alpha = 1``
solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .muntz import moment_recurrence


def _node_sums(poles, orders, nodes, weights, beta_q):
    """``T[i][j] = sum_k x_k**(-beta/2) w_k x_k**p_i log(x_k)**j / j!`` for
    the ascending poles ``p_i``, each power chained from the one before."""
    logs = [mp.log(mp.mpf(float(x))) for x in nodes]
    terms = [mp.exp((poles[0] - beta_q / 2) * ln_x) * mp.mpf(float(w)) for ln_x, w in zip(logs, weights)]
    steps = {}  # gap -> exp(gap * log x_k) per node
    sums = []
    for i, order in enumerate(orders):
        if i:
            gap = poles[i] - poles[i - 1]
            if gap not in steps:
                steps[gap] = [mp.exp(gap * ln_x) for ln_x in logs]
            terms = [term * step for term, step in zip(terms, steps[gap])]
        row, powered = [mp.fsum(terms)], terms
        for j in range(1, order):
            powered = [term * ln_x / j for term, ln_x in zip(powered, logs)]
            row.append(mp.fsum(powered))
        sums.append(row)
    return sums


@dataclass(frozen=True)
class PoleExpansion:
    """Everything of the polish residual that depends on the exponents only.

    ``poles`` lists the distinct poles in ascending order and ``orders``
    each one's final multiplicity.  ``rows[n]`` lists, per pole index ``i``
    present in prefix ``n``, the pair ``(i, [h_{m-1-j} for j < m])`` for
    the multiplicity ``m`` of that pole in the prefix; ``moments`` holds the
    exact moments, all at ``digits`` working digits.
    """

    digits: int
    beta: mp.mpf
    poles: list
    orders: list
    rows: list
    moments: list


def pole_expansion(exponents, beta: float) -> PoleExpansion:
    """The residual's exponent-only table: working precision, poles with their
    multiplicities, each row's Taylor coefficients and the exact moments."""
    lam = np.asarray(exponents, dtype=float)
    digits = 30 + int(1.2 * lam.size)
    with mp.workdps(digits):
        beta_q = mp.mpf(beta)
        distinct, at = np.unique(lam, return_inverse=True)
        poles = [mp.mpf(v) + beta_q / 2 for v in distinct]
        # the pole index of each exponent, and each pole's final multiplicity
        at, orders = at.tolist(), np.bincount(at).tolist()

        series = [[mp.mpf(1)] + [mp.mpf(0)] * (m - 1) for m in orders]
        count = [0] * len(poles)
        rows = []
        for n, k in enumerate(at):
            shift = poles[at[n - 1]] + 1 if n else None  # numerator factor t + shift
            for i, (p, h) in enumerate(zip(poles, series)):
                if n:
                    c = p + shift
                    for j in range(len(h) - 1, 0, -1):
                        h[j] = c * h[j] + h[j - 1]
                    h[0] *= c
                if i == k:  # denominator factor t - p
                    count[i] += 1
                else:
                    d = p - poles[k]
                    h[0] /= d
                    for j in range(1, len(h)):
                        h[j] = (h[j] - h[j - 1]) / d
            rows.append([(i, h[count[i] - 1 :: -1]) for i, h in enumerate(series) if count[i]])
        moments = moment_recurrence(lam, beta_q)
    return PoleExpansion(digits, beta_q, poles, orders, rows, moments)


def exact_residual(nodes, weights, expansion: PoleExpansion) -> np.ndarray:
    """Moment-matching residual at a rule, from the table of ``pole_expansion``
    for its exponents; computed in arbitrary precision and rounded."""
    with mp.workdps(expansion.digits):
        sums = _node_sums(expansion.poles, expansion.orders, nodes, weights, expansion.beta)
        residual = np.empty(len(expansion.rows))
        for n, (row, moment) in enumerate(zip(expansion.rows, expansion.moments)):
            q = mp.fdot((h[j], sums[i][j]) for i, h in row for j in range(len(h)))
            residual[n] = float(q - moment)
    return residual
