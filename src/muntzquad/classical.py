"""Classical Gaussian rules used as building blocks.

Gauss-Legendre on [0, 1] (panel quadrature for the oscillatory contour
integral), Gauss-Laguerre on (0, inf) (the exponential tail), and
Gauss-Jacobi on [0, 1] with weight x**beta.

Node seeds are the eigenvalues of the three-term recurrence's Jacobi matrix
(numpy's dense symmetric eigensolver).  They are Newton-polished against the
orthonormal-polynomial recurrence in double-double, with weights from the
Christoffel sum in the same arithmetic, so the cached rules are correctly
rounded: every downstream quadrature inherits the rule's accuracy, and the
plain eigensolver only carries ~1e-13 of it.  Rules are cached per
(kind, order, beta) and returned with read-only arrays, so concurrent
reads are safe and accidental mutation raises.  The rule solver's start,
``_jacobi_start``, skips the polish and the cache.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dd
from .errors import InvalidBetaError, InvalidOrderError, _as_real


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


def _orthonormal_eval(x, alpha, sqrt_beta, order, derivative=True):
    """Orthonormal-polynomial values/derivatives at ``x`` plus the Christoffel sum.

    ``sqrt_beta[0]`` is sqrt of the zeroth moment.  Returns ``(p, dp, s)``
    for the degree-``order`` element, with ``s = sum_{k<order} p_k(x)**2``.
    All quantities are dd pairs over the node axis.  Without ``derivative``
    the derivative recurrence is skipped and ``dp`` is None.
    """
    zero = dd.from_double(np.zeros_like(x[0]))
    p_prev, dp_prev = zero, zero
    p_cur = dd.div(dd.from_double(np.ones_like(x[0])), sqrt_beta[0])
    dp_cur = zero if derivative else None
    chris = dd.mul(p_cur, p_cur)
    for k in range(order):
        shift = dd.add(x, dd.negate(alpha[k]))
        p_next = dd.div(
            dd.add(dd.mul(shift, p_cur), dd.negate(dd.mul(sqrt_beta[k], p_prev))),
            sqrt_beta[k + 1],
        )
        if derivative:
            dp_next = dd.div(
                dd.add(dd.add(p_cur, dd.mul(shift, dp_cur)), dd.negate(dd.mul(sqrt_beta[k], dp_prev))),
                sqrt_beta[k + 1],
            )
            dp_prev, dp_cur = dp_cur, dp_next
        p_prev, p_cur = p_cur, p_next
        if k < order - 1:
            chris = dd.add(chris, dd.mul(p_cur, p_cur))
    return p_cur, dp_cur, chris


def _rule(alpha, beta_coeffs, newton_steps):
    """Nodes and weights from the recurrence coefficients.

    ``alpha``/``beta_coeffs`` are dd pairs of the monic recurrence
    coefficients with ``beta_coeffs[0]`` the zeroth moment.  The nodes start
    as the eigenvalues of the Jacobi matrix, and ``newton_steps`` dd Newton
    steps on the orthonormal polynomial follow (two move each node to
    ~1e-30).  The weights are the reciprocal Christoffel sums at the result.
    Both arrays come back read-only.
    """
    order = alpha[0].size
    sqrt_off = np.sqrt(dd.to_double((beta_coeffs[0][1:-1], beta_coeffs[1][1:-1])))
    jacobi = np.diag(dd.to_double(alpha)) + np.diag(sqrt_off, 1) + np.diag(sqrt_off, -1)
    alpha_pairs = [(alpha[0][k], alpha[1][k]) for k in range(order)]
    sqrt_beta = [dd.sqrt((beta_coeffs[0][k], beta_coeffs[1][k])) for k in range(order + 1)]
    x = dd.from_double(np.linalg.eigvalsh(jacobi))
    for _ in range(newton_steps):
        p, dp, _ = _orthonormal_eval(x, alpha_pairs, sqrt_beta, order)
        x = dd.add(x, dd.negate(dd.div(p, dp)))
    _, _, chris = _orthonormal_eval(x, alpha_pairs, sqrt_beta, order, False)
    nodes, weights = dd.to_double(x), 1.0 / dd.to_double(chris)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre(order: int) -> ClassicalRule:
    """Gauss-Legendre rule on [0, 1] with unit weight.

    Exact for polynomials of degree <= 2*order - 1.
    """
    return _gauss_legendre(_check_order(order))


@lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> ClassicalRule:
    k = np.arange(order + 1, dtype=float)
    alpha = dd.from_double(np.full(order, 0.5))
    beta = dd.div(dd.from_double(k**2), dd.from_double(4.0 * (4.0 * k**2 - 1.0)))
    beta[0][0], beta[1][0] = 1.0, 0.0  # zeroth moment of the unit weight
    return ClassicalRule(*_rule(alpha, beta, 2))


def gauss_laguerre(order: int) -> ClassicalRule:
    """Gauss-Laguerre rule on (0, inf) with weight exp(-y)."""
    return _gauss_laguerre(_check_order(order))


@lru_cache(maxsize=None)
def _gauss_laguerre(order: int) -> ClassicalRule:
    k = np.arange(order, dtype=float)
    alpha = dd.from_double(2.0 * k + 1.0)
    beta = dd.from_double(np.arange(order + 1, dtype=float) ** 2)
    beta[0][0] = 1.0  # zeroth moment of exp(-y)
    return ClassicalRule(*_rule(alpha, beta, 2))


def gauss_jacobi(order: int, beta: float) -> ClassicalRule:
    """Gauss rule on [0, 1] with weight x**beta, beta > -1.

    The weights sum to exactly the zeroth moment 1/(1+beta).
    """
    order = _check_order(order)
    beta = _as_real(beta, InvalidBetaError, "beta")
    if not np.isfinite(beta) or beta <= -1.0:
        raise InvalidBetaError(f"beta must be > -1, got {beta}")
    return _gauss_jacobi(order, beta)


@lru_cache(maxsize=None)
def _gauss_jacobi(order: int, beta: float) -> ClassicalRule:
    return ClassicalRule(*_rule(*_jacobi_coefficients(order, beta), 2))


def _jacobi_start(order: int, beta: float):
    """Nodes and weights of the Gauss rule for x**beta on [0, 1], unrefined.

    The rule solver's walk starts here and its first solve stops at 1e-5,
    so the eigenvalue nodes go unpolished.  One dd Christoffel pass keeps
    every weight within ~1e-10 relative, where the eigenvectors' smallest
    weights lose every digit.  ``beta`` must already be valid.
    """
    return _rule(*_jacobi_coefficients(order, beta), 0)


def _jacobi_coefficients(order: int, beta: float):
    """Monic recurrence coefficients of x**beta on [0, 1] as dd pairs.

    The coefficients for the Jacobi weight (1+t)**beta on [-1, 1] are
    affine-mapped to [0, 1]; the zeroth moment there is 1/(1+beta).
    """
    k = np.arange(1, order, dtype=float)
    b = dd.from_double(np.float64(beta))
    two_k_b = dd.add_double(dd.from_double(2.0 * k), beta)

    alpha_hi = np.empty(order)
    alpha_lo = np.empty(order)
    alpha_hi[0], alpha_lo[0] = dd.div(dd.add_double(b, 1.0), dd.add_double(b, 2.0))
    if order > 1:
        ratio = dd.div(dd.mul(b, b), dd.mul(two_k_b, dd.add_double(two_k_b, 2.0)))
        alpha_hi[1:], alpha_lo[1:] = dd.mul_double(dd.add_double(ratio, 1.0), 0.5)

    beta_hi = np.zeros(order + 1)
    beta_lo = np.zeros(order + 1)
    # the zeroth moment
    beta_hi[0], beta_lo[0] = dd.div(dd.from_double(np.float64(1.0)), dd.add_double(b, 1.0))
    if order > 1:
        k_b = dd.add_double(dd.from_double(k), beta)
        num = dd.mul(dd.from_double(k**2), dd.mul(k_b, k_b))
        sq = dd.mul(two_k_b, two_k_b)
        beta_hi[1:order], beta_lo[1:order] = dd.div(num, dd.mul(sq, dd.add_double(sq, -1.0)))
    # beta_coeffs[order] only normalizes the last orthonormal element; any
    # positive value works, reuse 1
    beta_hi[order] = 1.0
    return (alpha_hi, alpha_lo), (beta_hi, beta_lo)
