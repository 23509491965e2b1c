"""Dyadic-panel adaptive integrator: an independent oracle for the tests.

Nothing in the package calls it; tests use it to check basis
orthogonality, moments and rules against integrals computed without any of
the rule-construction machinery.  Beside it, ``basis_on`` runs the
package's hyperbola evaluator on finer hyperbolas than its own table, an
oracle for the basis values the solver sees.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import pytest

from muntzquad import muntz
from muntzquad.classical import gauss_legendre

# Hyperbolas as ``muntz._SHAPES`` gives them, (row bound, base, angle,
# samples): those of the evaluator's former full tier, whose angle shrinks
# and whose samples grow with the rows.  Against residue sums they read at
# most 4.4e-16 at tiny x, where ``muntz._SHAPES`` reads 8.9e-14.
FULL_SHAPES = ((24, 2.0, 0.5, 64), (48, 2.0, 0.3, 128), (96, 2.0, 0.2, 256), (math.inf, 2.0, 0.1, 512))
# The same hyperbolas at twice the samples.
FINE_SHAPES = tuple((rows, base, angle, 2 * samples) for rows, base, angle, samples in FULL_SHAPES)


def basis_on(shapes, shifted, xs) -> np.ndarray:
    """``muntz._basis_batch(shifted, xs)`` on the hyperbolas ``shapes``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(muntz, "_SHAPES", shapes)
        return muntz._basis_batch(shifted, xs)

_EPS = np.finfo(float).eps


class ToleranceNotMetError(Exception):
    """Adaptive integration hit its refinement cap before converging."""


def _panel_nodes_weights(order: int):
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
