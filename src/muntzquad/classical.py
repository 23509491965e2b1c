"""Classical Gaussian rules used as building blocks.

Gauss-Legendre on [0, 1] (panel quadrature for the oscillatory contour
integral), Gauss-Laguerre on (0, inf) (the exponential tail), and
Gauss-Jacobi on [0, 1] with weight x**beta (the continuation start point).

Node seeds are the eigenvalues of the three-term recurrence's Jacobi matrix
(numpy's dense symmetric eigensolver).  They are Newton-polished against the
orthonormal-polynomial recurrence in double-double, with weights from the
Christoffel sum in the same arithmetic, so the cached rules are correctly
rounded: every downstream quadrature inherits the rule's accuracy, and the
plain eigensolver only carries ~1e-13 of it.  Rules are cached per
(kind, order, beta) and returned with read-only arrays, so concurrent
reads are safe and accidental mutation raises.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dd
from .errors import InvalidBetaError, InvalidOrderError


@dataclass(frozen=True)
class ClassicalRule:
    """Nodes and weights of a classical Gauss rule (read-only arrays)."""

    nodes: np.ndarray
    weights: np.ndarray


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_order(order) -> int:
    try:
        order = operator.index(order)
    except TypeError:
        raise InvalidOrderError(f"order must be an integer, got {order!r}") from None
    if order < 1:
        raise InvalidOrderError(f"order must be >= 1, got {order}")
    return order


def _orthonormal_eval(x, alpha, sqrt_beta, order):
    """Orthonormal-polynomial values/derivatives at ``x`` plus the Christoffel sum.

    ``sqrt_beta[0]`` is sqrt of the zeroth moment.  Returns ``(p, dp, s)``
    for the degree-``order`` element, with ``s = sum_{k<order} p_k(x)**2``.
    All quantities are dd pairs over the node axis.
    """
    zero = dd.from_double(np.zeros_like(x[0]))
    p_prev, dp_prev = zero, zero
    p_cur = dd.div(dd.from_double(np.ones_like(x[0])), sqrt_beta[0])
    dp_cur = zero
    chris = dd.mul(p_cur, p_cur)
    for k in range(order):
        shift = dd.add(x, dd.negate(alpha[k]))
        p_next = dd.div(
            dd.add(dd.mul(shift, p_cur), dd.negate(dd.mul(sqrt_beta[k], p_prev))),
            sqrt_beta[k + 1],
        )
        dp_next = dd.div(
            dd.add(dd.add(p_cur, dd.mul(shift, dp_cur)), dd.negate(dd.mul(sqrt_beta[k], dp_prev))),
            sqrt_beta[k + 1],
        )
        p_prev, dp_prev = p_cur, dp_cur
        p_cur, dp_cur = p_next, dp_next
        if k < order - 1:
            chris = dd.add(chris, dd.mul(p_cur, p_cur))
    return p_cur, dp_cur, chris


def _refined_rule(alpha, beta_coeffs, nodes0):
    """Correctly rounded nodes/weights from eigensolver estimates.

    ``alpha``/``beta_coeffs`` are dd pairs of the monic recurrence
    coefficients with ``beta_coeffs[0]`` the zeroth moment.  Two dd Newton
    steps on the orthonormal polynomial move each node to ~1e-30, and the
    weights follow as the reciprocal Christoffel sums.
    """
    order = nodes0.size
    alpha_pairs = [(alpha[0][k], alpha[1][k]) for k in range(order)]
    sqrt_beta = [dd.sqrt((beta_coeffs[0][k], beta_coeffs[1][k])) for k in range(order + 1)]
    x = dd.from_double(nodes0)
    for _ in range(2):
        p, dp, _ = _orthonormal_eval(x, alpha_pairs, sqrt_beta, order)
        x = dd.add(x, dd.negate(dd.div(p, dp)))
    _, _, chris = _orthonormal_eval(x, alpha_pairs, sqrt_beta, order)
    weights = 1.0 / dd.to_double(chris)
    return dd.to_double(x), weights


def _build(alpha_dd, beta_dd) -> ClassicalRule:
    sqrt_off = np.sqrt(dd.to_double((beta_dd[0][1:-1], beta_dd[1][1:-1])))
    jacobi = np.diag(dd.to_double(alpha_dd)) + np.diag(sqrt_off, 1) + np.diag(sqrt_off, -1)
    nodes, weights = _refined_rule(alpha_dd, beta_dd, np.linalg.eigvalsh(jacobi))
    return ClassicalRule(nodes=_freeze(nodes), weights=_freeze(weights))


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> ClassicalRule:
    """Gauss-Legendre rule on [0, 1] with unit weight.

    Exact for polynomials of degree <= 2*order - 1.
    """
    order = _check_order(order)
    k = np.arange(order + 1, dtype=float)
    alpha = dd.from_double(np.full(order, 0.5))
    beta = dd.div(dd.from_double(k**2), dd.from_double(4.0 * (4.0 * k**2 - 1.0)))
    beta[0][0], beta[1][0] = 1.0, 0.0  # zeroth moment of the unit weight
    return _build(alpha, beta)


@lru_cache(maxsize=None)
def gauss_laguerre(order: int) -> ClassicalRule:
    """Gauss-Laguerre rule on (0, inf) with weight exp(-y)."""
    order = _check_order(order)
    k = np.arange(order, dtype=float)
    alpha = dd.from_double(2.0 * k + 1.0)
    beta = dd.from_double(np.arange(order + 1, dtype=float) ** 2)
    beta[0][0] = 1.0  # zeroth moment of exp(-y)
    return _build(alpha, beta)


@lru_cache(maxsize=None)
def gauss_jacobi(order: int, beta: float) -> ClassicalRule:
    """Gauss rule on [0, 1] with weight x**beta, beta > -1.

    The recurrence coefficients for the Jacobi weight (1+t)**beta on
    [-1, 1] are affine-mapped to [0, 1]; the zeroth moment there is
    1/(1+beta), so the weights sum to exactly that.
    """
    order = _check_order(order)
    beta = float(beta)
    if not np.isfinite(beta) or beta <= -1.0:
        raise InvalidBetaError(f"beta must be > -1, got {beta}")
    k = np.arange(1, order, dtype=float)
    b = dd.from_double(np.float64(beta))
    two_k_b = dd.add_double(dd.from_double(2.0 * k), beta)

    alpha_hi = np.empty(order)
    alpha_lo = np.empty(order)
    first = dd.div(dd.add_double(b, 1.0), dd.add_double(b, 2.0))
    alpha_hi[0], alpha_lo[0] = first
    if order > 1:
        ratio = dd.div(
            dd.mul(b, b),
            dd.mul(two_k_b, dd.add_double(two_k_b, 2.0)),
        )
        rest = dd.mul_double(dd.add_double(ratio, 1.0), 0.5)
        alpha_hi[1:], alpha_lo[1:] = rest

    beta_hi = np.zeros(order + 1)
    beta_lo = np.zeros(order + 1)
    mu0 = dd.div(dd.from_double(np.float64(1.0)), dd.add_double(b, 1.0))
    beta_hi[0], beta_lo[0] = mu0
    if order > 1:
        k_b = dd.add_double(dd.from_double(k), beta)
        num = dd.mul(dd.from_double(k**2), dd.mul(k_b, k_b))
        sq = dd.mul(two_k_b, two_k_b)
        den = dd.mul(sq, dd.add_double(sq, -1.0))
        vals = dd.div(num, den)
        beta_hi[1:order], beta_lo[1:order] = vals
    # beta_coeffs[order] only normalizes the last orthonormal element; any
    # positive value works, reuse 1
    beta_hi[order] = 1.0
    return _build((alpha_hi, alpha_lo), (beta_hi, beta_lo))
