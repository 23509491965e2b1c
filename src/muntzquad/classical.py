"""Classical Gaussian rules.

Gauss-Jacobi on [0, 1] with weight x**beta, whose unrefined form starts the
rule solver's homotopy walk, and Gauss-Legendre, the Gauss-Jacobi rule at
beta = 0.

Node seeds are the eigenvalues of the three-term recurrence's Jacobi matrix
(numpy's dense symmetric eigensolver).  One Newton step on the
orthonormal-polynomial recurrence polishes them, and the weights are the
reciprocal Christoffel sums at the result, so the cached rules are correctly
rounded: every downstream quadrature inherits the rule's accuracy, and the
plain eigensolver only carries ~1e-13 of it.  The recurrence coefficients,
the Newton step and the Christoffel sums call the raw ``mpmath.libmp``
kernels on number tuples at ``_PREC`` bits, rounded to nearest, as
``refine`` does.  Rules are cached per (order, beta) and returned with
read-only arrays, so concurrent reads are safe and accidental mutation
raises.  The rule solver's start, ``_jacobi_start``, skips the Newton step
and the cache.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from mpmath import libmp
from mpmath.libmp import fone, from_float, from_int, fzero, mpf_add, mpf_div, mpf_mul, mpf_shift, mpf_sqrt, mpf_sub

from .errors import InvalidBetaError, InvalidOrderError, _as_real

# Working precision in bits: one Newton step from the eigenvalue seeds
# lands every node well inside it, far below a double's rounding.
_PREC = 113
_RND = libmp.round_nearest


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


def _to_float(value) -> float:
    return libmp.to_float(value, rnd=_RND)


def _orthonormal_eval(x, alpha, sqrt_beta, order, derivative=True):
    """Orthonormal-polynomial values at every node of ``x``.

    ``sqrt_beta[0]`` is sqrt of the zeroth moment.  With ``derivative``,
    returns the Newton correction ``p/dp`` of the degree-``order`` element
    per node; without it, the Christoffel sum ``sum_{k<order} p_k(x)**2``
    per node.  Nodes, coefficients and results are raw ``libmp`` numbers.
    """
    prec = _PREC
    p_first = mpf_div(fone, sqrt_beta[0], prec, _RND)
    out = []
    for xi in x:
        p_prev, p_cur = fzero, p_first
        dp_prev = dp_cur = fzero
        chris = mpf_mul(p_cur, p_cur, prec, _RND)
        for k in range(order):
            shift = mpf_sub(xi, alpha[k], prec, _RND)
            p_next = mpf_div(
                mpf_sub(mpf_mul(shift, p_cur, prec, _RND), mpf_mul(sqrt_beta[k], p_prev, prec, _RND), prec, _RND),
                sqrt_beta[k + 1], prec, _RND,
            )
            if derivative:
                dp_next = mpf_add(p_cur, mpf_mul(shift, dp_cur, prec, _RND), prec, _RND)
                dp_next = mpf_div(
                    mpf_sub(dp_next, mpf_mul(sqrt_beta[k], dp_prev, prec, _RND), prec, _RND),
                    sqrt_beta[k + 1], prec, _RND,
                )
                dp_prev, dp_cur = dp_cur, dp_next
            elif k < order - 1:
                chris = mpf_add(chris, mpf_mul(p_next, p_next, prec, _RND), prec, _RND)
            p_prev, p_cur = p_cur, p_next
        out.append(mpf_div(p_cur, dp_cur, prec, _RND) if derivative else chris)
    return out


def _rule(alpha, beta_coeffs, newton_steps):
    """Nodes and weights from the recurrence coefficients.

    ``alpha``/``beta_coeffs`` are lists of the monic recurrence
    coefficients as ``libmp`` numbers, with ``beta_coeffs[0]`` the zeroth
    moment.  The nodes start as the eigenvalues of the Jacobi matrix, and
    ``newton_steps`` Newton steps on the orthonormal polynomial follow (the
    seeds carry ~1e-13, so one quadratic step leaves ~1e-26).  The weights are the reciprocal Christoffel
    sums at the result, each rounded to a double before its reciprocal.
    Both arrays come back read-only.
    """
    order = len(alpha)
    sqrt_off = np.sqrt([_to_float(b) for b in beta_coeffs[1:-1]])
    jacobi = np.diag([_to_float(a) for a in alpha]) + np.diag(sqrt_off, 1) + np.diag(sqrt_off, -1)
    sqrt_beta = [mpf_sqrt(b, _PREC, _RND) for b in beta_coeffs]
    x = [from_float(float(v)) for v in np.linalg.eigvalsh(jacobi)]
    for _ in range(newton_steps):
        corrections = _orthonormal_eval(x, alpha, sqrt_beta, order)
        x = [mpf_sub(xi, dx, _PREC, _RND) for xi, dx in zip(x, corrections)]
    chris = _orthonormal_eval(x, alpha, sqrt_beta, order, False)
    nodes = np.array([_to_float(xi) for xi in x])
    weights = 1.0 / np.array([_to_float(s) for s in chris])
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

    The weights sum to exactly the zeroth moment 1/(1+beta).
    """
    order = _check_order(order)
    beta = _as_real(beta, InvalidBetaError, "beta")
    if not np.isfinite(beta) or beta <= -1.0:
        raise InvalidBetaError(f"beta must be > -1, got {beta}")
    return _gauss_jacobi(order, beta)


@lru_cache(maxsize=None)
def _gauss_jacobi(order: int, beta: float) -> ClassicalRule:
    return ClassicalRule(*_rule(*_jacobi_coefficients(order, beta), 1))


def _jacobi_start(order: int, beta: float):
    """Nodes and weights of the Gauss rule for x**beta on [0, 1], unrefined.

    The rule solver's walk starts here and its first solve stops at 1e-5,
    so the eigenvalue nodes go unpolished.  One Christoffel pass keeps
    every weight within ~1e-10 relative, where the eigenvectors' smallest
    weights lose every digit.  ``beta`` must already be valid.
    """
    return _rule(*_jacobi_coefficients(order, beta), 0)


def _jacobi_coefficients(order: int, beta: float):
    """Monic recurrence coefficients of x**beta on [0, 1] as ``libmp`` numbers.

    The coefficients for the Jacobi weight (1+t)**beta on [-1, 1] are
    affine-mapped to [0, 1]; the zeroth moment there is 1/(1+beta).
    """
    add, sub, mul, div = (partial(f, prec=_PREC, rnd=_RND) for f in (mpf_add, mpf_sub, mpf_mul, mpf_div))
    b = from_float(float(beta))
    alpha = [div(add(b, fone), add(b, from_int(2)))]
    beta_coeffs = [div(fone, add(b, fone))]  # the zeroth moment
    for k in range(1, order):
        two_k_b = add(from_int(2 * k), b)
        ratio = div(mul(b, b), mul(two_k_b, add(two_k_b, from_int(2))))
        alpha.append(mpf_shift(add(ratio, fone), -1))  # (1 + ratio) / 2
        k_b, sq = add(from_int(k), b), mul(two_k_b, two_k_b)
        beta_coeffs.append(div(mul(from_int(k * k), mul(k_b, k_b)), mul(sq, sub(sq, fone))))
    # beta_coeffs[order] only normalizes the last orthonormal element; any
    # positive value works, take 1
    return alpha, beta_coeffs + [fone]
