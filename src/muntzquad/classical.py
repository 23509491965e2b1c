"""Classical Gaussian rules.

Gauss-Jacobi on [0, 1] with weight x**beta, whose unrefined form starts the
rule solver's homotopy walk, and Gauss-Legendre, the Gauss-Jacobi rule at
beta = 0.

Node seeds are the eigenvalues of the three-term recurrence's Jacobi matrix
(numpy's dense symmetric eigensolver).  One Newton step on the
orthonormal-polynomial recurrence polishes them, and the weights are the
reciprocal Christoffel sums at the result, divided at the working
precision, so the cached rules are correctly rounded: every downstream
quadrature inherits the rule's accuracy, and the plain eigensolver only
carries ~1e-13 of it.  The Newton step and the
Christoffel sums run at ``_PREC`` bits on ``refine``'s integer pairs and
helpers.  Every recurrence coefficient is a quotient of exact integers, so
each ``alpha_k`` takes one rounded division and each ``sqrt(b_k)`` and
``1/sqrt(b_k)`` one ``math.isqrt``.  Rules are cached per (order, beta)
and returned with read-only arrays, so concurrent reads are safe and
accidental mutation raises.  The rule solver's start, ``_jacobi_start``,
skips the Newton step and the cache.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InvalidBetaError, InvalidOrderError, _as_real
from .refine import _div, _double, _pair, _sum, _trunc

# Working precision in bits: one Newton step from the eigenvalue seeds
# lands every node well inside it, far below a double's rounding.
_PREC = 113


@dataclass(frozen=True)
class ClassicalRule:
    """Nodes and weights of a classical Gauss rule (read-only arrays)."""

    nodes: np.ndarray
    weights: np.ndarray


def _check_order(order) -> int:
    try:
        order = operator.index(order)
    except TypeError:
        raise InvalidOrderError(f"order must be an integer, got {order!r}") from None
    if order < 1:
        raise InvalidOrderError(f"order must be >= 1, got {order}")
    return order


def _orthonormal_eval(x, alpha, roots, order, derivative=True):
    """Orthonormal-polynomial values at every node of ``x``.

    ``roots[k]`` is ``(sqrt(b_k), 1/sqrt(b_k))``, with ``b_0`` the zeroth
    moment.  With ``derivative``, returns the Newton correction ``p/dp`` of
    the degree-``order`` element per node; without it, the Christoffel sum
    ``sum_{k<order} p_k(x)**2`` per node.  Nodes, coefficients and results
    are ``(mantissa, exponent)`` pairs; each step sums exact products and
    rounds once, times ``1/sqrt(b_{k+1})``, and the Christoffel sum is one
    ``_sum`` of exact squares.
    """
    width = _PREC
    out = []
    for xi in x:
        p_prev, p_cur = (0, 0), roots[0][1]
        dp_prev = dp_cur = (0, 0)
        squares = [(p_cur[0] * p_cur[0], 2 * p_cur[1])]
        for k in range(order):
            (bm, be), (im, ie) = roots[k][0], roots[k + 1][1]
            shift = _trunc(*_sum([xi, (-alpha[k][0], alpha[k][1])], width), width)
            pm, pe = _sum([(shift[0] * p_cur[0], shift[1] + p_cur[1]), (-bm * p_prev[0], be + p_prev[1])], width)
            p_next = _trunc(pm * im, pe + ie, width)
            if derivative:
                dm, de = _sum([p_cur, (shift[0] * dp_cur[0], shift[1] + dp_cur[1]),
                               (-bm * dp_prev[0], be + dp_prev[1])], width)
                dp_prev, dp_cur = dp_cur, _trunc(dm * im, de + ie, width)
            elif k < order - 1:
                squares.append((p_next[0] * p_next[0], 2 * p_next[1]))
            p_prev, p_cur = p_cur, p_next
        out.append(_div(p_cur[0], p_cur[1] - dp_cur[1], dp_cur[0], width) if derivative
                   else _sum(squares, width))
    return out


def _sqrt(n: int, d: int) -> tuple:
    """``sqrt(n/d)`` for integers ``n, d > 0`` as a pair of about ``_PREC``
    bits, floored: one integer division and one ``math.isqrt``."""
    j = _PREC + 1 + (d.bit_length() - n.bit_length()) // 2
    q = (n << 2 * j) // d if j >= 0 else n // (d << -2 * j)
    return math.isqrt(q), -j


def _ascending(nodes, order: int, beta: float) -> np.ndarray:
    """``nodes``, or ``DomainError`` unless they ascend strictly in (0, 1)."""
    if not (nodes[0] > 0.0 and nodes[-1] < 1.0 and np.all(np.diff(nodes) > 0.0)):
        raise DomainError(
            f"the Gauss-Jacobi rule of order {order} for x**{beta:.3g} has nodes that are not "
            "strictly ascending in (0, 1): they crowd at 1 and round to 1 in double precision"
        )
    return nodes


def _rule(order: int, beta: float, newton_steps: int):
    """Nodes and weights of the Gauss rule for ``x**beta`` on [0, 1].

    The monic recurrence coefficients ``alpha_k`` and ``b_k`` (``b_0`` the
    zeroth moment) are those of the Jacobi weight (1+t)**beta on [-1, 1]
    mapped to [0, 1], each a quotient of exact integers over ``beta``'s own
    power of two.  The nodes start as the eigenvalues of the Jacobi matrix,
    and ``newton_steps`` Newton steps on the orthonormal polynomial follow
    (the seeds carry ~1e-13, so one quadratic step leaves ~1e-26).  The
    weights are the reciprocal Christoffel sums at the result, each one
    division at ``_PREC`` bits, rounded to a double once.  Both arrays come
    back read-only.
    Raises ``DomainError`` when the seeds or the nodes, as doubles, do not
    ascend strictly in (0, 1): they crowd at 1 as ``beta`` grows, and from
    ``beta`` of about 1e16 they merge or round to 1.
    """
    num, den = float(beta).as_integer_ratio()  # beta = num/den
    alpha, b = [(num + den, num + 2 * den)], [(den, num + den)]
    for k in range(1, order):
        t = 2 * k * den + num  # (2k + beta) * den
        tt = t * (t + 2 * den)
        alpha.append((tt + num * num, 2 * tt))  # (1 + beta**2/((2k+beta)(2k+beta+2))) / 2
        b.append(((k * (k * den + num) * den) ** 2, t * t * (t * t - den * den)))
    b.append((1, 1))  # b[order] only normalizes the last orthonormal element
    sqrt_off = np.sqrt([n / d for n, d in b[1:-1]])
    jacobi = np.diag([n / d for n, d in alpha]) + np.diag(sqrt_off, 1) + np.diag(sqrt_off, -1)
    alpha = [_div(n, 0, d, _PREC) for n, d in alpha]
    roots = [(_sqrt(n, d), _sqrt(d, n)) for n, d in b]
    # checked before Newton too: a seed on 1 can zero a Newton denominator
    x = [_pair(v) for v in _ascending(np.linalg.eigvalsh(jacobi), order, beta)]
    for _ in range(newton_steps):
        corrections = _orthonormal_eval(x, alpha, roots, order)
        x = [_trunc(*_sum([xi, (-cm, ce)], _PREC), _PREC) for xi, (cm, ce) in zip(x, corrections)]
    chris = _orthonormal_eval(x, alpha, roots, order, False)
    nodes = _ascending(np.array([_double(*xi) for xi in x]), order, beta)
    weights = np.array([_double(*_div(1, -e, m, _PREC)) for m, e in chris])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre(order: int) -> ClassicalRule:
    """Gauss-Legendre rule on [0, 1] with unit weight.

    Exact for polynomials of degree <= 2*order - 1.
    """
    return _gauss_jacobi(_check_order(order), 0.0)


def gauss_jacobi(order: int, beta: float) -> ClassicalRule:
    """Gauss rule on [0, 1] with weight x**beta, beta > -1.

    The weights sum to exactly the zeroth moment 1/(1+beta).  Raises
    ``DomainError`` where the nodes do not fit doubles (see ``_rule``).
    """
    order = _check_order(order)
    beta = _as_real(beta, InvalidBetaError, "beta")
    if not np.isfinite(beta) or beta <= -1.0:
        raise InvalidBetaError(f"beta must be > -1, got {beta}")
    return _gauss_jacobi(order, beta)


@lru_cache(maxsize=None)
def _gauss_jacobi(order: int, beta: float) -> ClassicalRule:
    return ClassicalRule(*_rule(order, beta, 1))


def _jacobi_start(order: int, beta: float):
    """Nodes and weights of the Gauss rule for x**beta on [0, 1], unrefined.

    The rule solver's walk starts here and its first solve stops at 1e-5,
    so the eigenvalue nodes go unpolished.  One Christoffel pass keeps
    every weight within ~1e-10 relative, where the eigenvectors' smallest
    weights lose every digit.  ``beta`` must already be valid.
    """
    return _rule(order, beta, 0)
