"""Self-contained numerical kernels.

Dense linear solve with partial pivoting, a symmetric tridiagonal
eigensolver, Nelder-Mead minimization, and a dyadic-panel adaptive
integrator used as an independent oracle by tests and validation.  All
functions are pure; nothing here keeps state between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    NoConvergenceError,
    SingularMatrixError,
    ToleranceNotMetError,
)

_EPS = np.finfo(float).eps


def solve_dense(a, b) -> np.ndarray:
    """Solve the square system ``a @ p = b`` by LU with partial pivoting.

    Raises ``SingularMatrixError`` when an entry is not finite or a pivot
    magnitude falls below ``n * eps * norm_inf(a)``, which is how a
    degenerate Jacobian surfaces to the Newton driver.
    """
    lu = np.array(a, dtype=float, copy=True)
    rhs = np.array(b, dtype=float, copy=True).ravel()
    if lu.ndim != 2 or lu.shape[0] != lu.shape[1]:
        raise ValueError(f"matrix must be square, got shape {lu.shape}")
    n = lu.shape[0]
    if rhs.shape[0] != n:
        raise ValueError(f"rhs length {rhs.shape[0]} does not match matrix order {n}")
    if not np.all(np.isfinite(lu)) or not np.all(np.isfinite(rhs)):
        raise SingularMatrixError("matrix and rhs entries must be finite")

    norm = float(np.abs(lu).sum(axis=1).max()) if n else 0.0
    threshold = n * _EPS * norm
    perm = np.arange(n)

    for k in range(n - 1):
        pivot_row = k + int(np.argmax(np.abs(lu[k:, k])))
        if pivot_row != k:
            lu[[k, pivot_row]] = lu[[pivot_row, k]]
            perm[[k, pivot_row]] = perm[[pivot_row, k]]
        pivot = lu[k, k]
        if abs(pivot) <= threshold:
            raise SingularMatrixError(f"pivot {pivot:.3e} below threshold {threshold:.3e} at column {k}")
        factors = lu[k + 1 :, k] / pivot
        lu[k + 1 :, k] = factors
        lu[k + 1 :, k + 1 :] -= np.outer(factors, lu[k, k + 1 :])
    if n and abs(lu[n - 1, n - 1]) <= threshold:
        raise SingularMatrixError(f"pivot {lu[n - 1, n - 1]:.3e} below threshold {threshold:.3e} at column {n - 1}")

    x = rhs[perm]
    for k in range(1, n):
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - lu[k, k + 1 :] @ x[k + 1 :]) / lu[k, k]
    return x


def sym_tridiag_eigen(diagonal, off_diagonal, max_sweeps: int = 50):
    """Eigen-decompose a symmetric tridiagonal matrix.

    Implicit-shift QL iteration with first-eigenvector-component tracking
    (the classic Golub-Welsch trick: weights only need the first row of the
    eigenvector matrix, so full accumulation is skipped).

    Returns ``(eigenvalues, first_components)`` with eigenvalues ascending
    and ``first_components[j]`` the first entry of the normalized
    eigenvector for ``eigenvalues[j]``.
    """
    d = np.array(diagonal, dtype=float, copy=True).ravel()
    n = d.shape[0]
    e_in = np.array(off_diagonal, dtype=float, copy=True).ravel()
    if n == 0:
        raise ValueError("empty diagonal")
    if e_in.shape[0] != n - 1:
        raise ValueError(f"off-diagonal length {e_in.shape[0]}, expected {n - 1}")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e_in))):
        raise ValueError("tridiagonal entries must be finite")

    e = np.zeros(n)
    e[: n - 1] = e_in
    z = np.zeros(n)
    z[0] = 1.0

    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= _EPS * dd:
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > max_sweeps:
                raise NoConvergenceError(f"eigenvalue {l} did not converge in {max_sweeps} sweeps")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                bb = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * bb
                p = s * r
                d[i + 1] = g + p
                g = c * r - bb
                f = z[i + 1]
                z[i + 1] = s * z[i] + c * f
                z[i] = c * z[i] - s * f
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0

    order = np.argsort(d, kind="stable")
    return d[order], z[order]


@dataclass(frozen=True)
class MinimizeResult:
    """Outcome of a Nelder-Mead run: best point, value, convergence flag."""

    x: np.ndarray
    fx: float
    converged: bool
    evaluations: int


def _fold_into_bounds(x, lower, upper):
    inside = (lower is None or np.all(x >= lower)) and (upper is None or np.all(x <= upper))
    if inside:
        return np.asarray(x, dtype=float)
    out = np.array(x, dtype=float, copy=True)
    if lower is not None:
        below = out < lower
        out[below] = 2.0 * lower[below] - out[below]
    if upper is not None:
        above = out > upper
        out[above] = 2.0 * upper[above] - out[above]
    if lower is not None:
        np.maximum(out, lower, out=out)
    if upper is not None:
        np.minimum(out, upper, out=out)
    return out


def nelder_mead_min(
    f: Callable[[np.ndarray], float],
    x0,
    tolerance: float = 1e-8,
    max_evals: int = 500,
    lower=None,
    upper=None,
    initial_step: float = 0.25,
) -> MinimizeResult:
    """Minimize ``f`` from ``x0`` with the Nelder-Mead simplex method.

    Infeasible proposals are reflected back across the violated bound, so
    the objective is never evaluated outside ``[lower, upper]``.  Always
    returns the best point seen; ``converged`` reports whether the simplex
    diameter dropped below ``tolerance`` within the evaluation budget.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    dim = x0.shape[0]
    lo = None if lower is None else np.broadcast_to(np.asarray(lower, dtype=float), (dim,)).copy()
    hi = None if upper is None else np.broadcast_to(np.asarray(upper, dtype=float), (dim,)).copy()

    x0 = _fold_into_bounds(x0, lo, hi)
    evals = 0

    def fe(point):
        nonlocal evals
        evals += 1
        val = f(point)
        return val if np.isfinite(val) else math.inf

    simplex = [x0]
    for i in range(dim):
        step = initial_step * max(abs(x0[i]), 1.0)
        vertex = x0.copy()
        vertex[i] += step
        simplex.append(_fold_into_bounds(vertex, lo, hi))
    values = [fe(v) for v in simplex]

    best_x = simplex[min(range(len(values)), key=values.__getitem__)].copy()
    best_f = min(values)

    alpha, gamma, rho, shrink = 1.0, 2.0, 0.5, 0.5
    converged = False
    while evals < max_evals:
        order = sorted(range(len(values)), key=values.__getitem__)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if values[0] < best_f:
            best_f = values[0]
            best_x = simplex[0].copy()

        diameter = max(float(np.max(np.abs(v - simplex[0]))) for v in simplex[1:]) if dim else 0.0
        if diameter < tolerance:
            converged = True
            break

        centroid = sum(simplex[:-1]) / float(dim)
        reflected = _fold_into_bounds(centroid + alpha * (centroid - simplex[-1]), lo, hi)
        f_r = fe(reflected)
        if f_r < values[0]:
            expanded = _fold_into_bounds(centroid + gamma * (reflected - centroid), lo, hi)
            f_e = fe(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            contracted = _fold_into_bounds(centroid + rho * (simplex[-1] - centroid), lo, hi)
            f_c = fe(contracted)
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
            else:
                for i in range(1, dim + 1):
                    simplex[i] = _fold_into_bounds(simplex[0] + shrink * (simplex[i] - simplex[0]), lo, hi)
                    values[i] = fe(simplex[i])

    i_best = min(range(len(values)), key=values.__getitem__)
    if values[i_best] < best_f:
        best_f = values[i_best]
        best_x = simplex[i_best].copy()
    return MinimizeResult(x=best_x, fx=float(best_f), converged=converged, evaluations=evals)


def _panel_nodes_weights(order: int):
    from .classical import gauss_legendre

    rule = gauss_legendre(order)
    return rule.nodes, rule.weights


def _panel_integral(f, lo, hi, nodes, weights, vectorized):
    xs = lo + (hi - lo) * nodes
    if vectorized:
        vals = np.asarray(f(xs), dtype=float)
    else:
        vals = np.array([f(float(x)) for x in xs], dtype=float)
    return float(vals @ weights) * (hi - lo)


def adaptive_integrate(
    f: Callable,
    tolerance: float = 1e-10,
    order: int = 24,
    max_levels: int = 600,
    vectorized: bool = False,
) -> float:
    """Integrate ``f`` over (0, 1), tolerating algebraic-log endpoint blowup.

    The interval splits at 1/2 and subdivides geometrically (ratio 1/2)
    toward each endpoint; every dyadic panel gets fixed-order Gauss-Legendre
    at two orders for an error estimate.  Works for integrands of the form
    ``x**a * log(x)**j * smooth`` with ``a > -1``, which is all the
    orthogonality and moment checks need.  Singular behavior at 1 is
    subdivided too, but only down to the spacing of representable points
    there, so hard right-endpoint singularities surface as
    ``ToleranceNotMetError`` at tight tolerances instead of a wrong value.

    With ``vectorized=True`` the integrand is called on node arrays instead
    of scalars; use it when each evaluation is expensive.

    Raises ``ToleranceNotMetError`` if ``max_levels`` dyadic refinements do
    not bring the level contributions below the tolerance.
    """
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    nodes_hi, weights_hi = _panel_nodes_weights(order)
    nodes_lo, weights_lo = _panel_nodes_weights(max(2, order - 8))

    contributions: list[float] = []
    error_sum = 0.0

    def run_side(toward_zero: bool) -> bool:
        nonlocal error_sum
        quiet = 0
        for level in range(1, max_levels + 1):
            width = 0.5 ** (level + 1)
            if toward_zero:
                lo_pt, hi_pt = width, 2.0 * width
            else:
                lo_pt, hi_pt = 1.0 - 2.0 * width, 1.0 - width
            if not (0.0 < lo_pt < hi_pt < 1.0) or hi_pt <= lo_pt:
                return False  # ran out of representable points before converging
            hi_val = _panel_integral(f, lo_pt, hi_pt, nodes_hi, weights_hi, vectorized)
            lo_val = _panel_integral(f, lo_pt, hi_pt, nodes_lo, weights_lo, vectorized)
            contributions.append(hi_val)
            error_sum += abs(hi_val - lo_val)
            scale = max(1.0, abs(math.fsum(contributions)))
            if abs(hi_val) <= 0.05 * tolerance * scale:
                quiet += 1
                if quiet >= 3:
                    return True
            else:
                quiet = 0
        return False

    finished = run_side(toward_zero=True) and run_side(toward_zero=False)
    total = math.fsum(contributions)
    if not finished:
        raise ToleranceNotMetError(f"refinement cap {max_levels} reached; last total {total!r}")
    if error_sum > 0.5 * max(tolerance, 10.0 * _EPS * abs(total)):
        raise ToleranceNotMetError(f"panel error estimate {error_sum:.3e} exceeds tolerance {tolerance:.3e}")
    return total
