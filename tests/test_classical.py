import math

import numpy as np
import pytest
from mpmath import mp

from muntzquad.classical import _jacobi_start, gauss_jacobi, gauss_legendre
from muntzquad.errors import InvalidBetaError, InvalidOrderError


def test_legendre_midpoint():
    rule = gauss_legendre(1)
    assert rule.nodes[0] == 0.5
    assert rule.weights[0] == 1.0


def test_legendre_two_point_closed_form():
    rule = gauss_legendre(2)
    ref = np.array([0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6])
    assert np.allclose(rule.nodes, ref, atol=1e-16)
    assert np.allclose(rule.weights, [0.5, 0.5], atol=1e-16)


def test_legendre_degree_nine_exactness():
    rule = gauss_legendre(5)
    value = float(rule.weights @ rule.nodes**9)
    assert abs(value - 0.1) <= 1e-14


@pytest.mark.parametrize("order", [1, 2, 3, 8, 16, 33, 64])
def test_legendre_structure_and_weight_sum(order):
    rule = gauss_legendre(order)
    assert np.all(np.diff(rule.nodes) > 0)
    assert rule.nodes[0] > 0 and rule.nodes[-1] < 1
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) <= 1e-13


def test_jacobi_reduces_to_legendre():
    a = gauss_jacobi(7, 0.0)
    b = gauss_legendre(7)
    assert np.abs(a.nodes - b.nodes).max() <= 1e-14
    assert np.abs(a.weights - b.weights).max() <= 1e-14


def test_jacobi_one_point_closed_forms():
    rule = gauss_jacobi(1, -0.5)
    assert abs(rule.nodes[0] - 1.0 / 3.0) <= 1e-15
    assert abs(rule.weights[0] - 2.0) <= 1e-14
    for beta in (-0.7, 0.0, 1.3, 4.0):
        rule = gauss_jacobi(1, beta)
        assert abs(rule.nodes[0] - (1 + beta) / (2 + beta)) <= 1e-15
        assert abs(rule.weights[0] - 1.0 / (1 + beta)) <= 1e-14


def test_jacobi_weight_sum_and_structure():
    for order, beta in [(3, -0.9), (12, -0.3), (40, 2.5), (64, 0.7)]:
        rule = gauss_jacobi(order, beta)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] > 0 and rule.nodes[-1] < 1
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 1.0 / (1 + beta)) <= 1e-13 / (1 + beta)


def test_jacobi_power_moment_exactness():
    rng = np.random.default_rng(11)
    for _ in range(12):
        beta = rng.uniform(-0.9, 3.0)
        order = int(rng.integers(1, 21))
        rule = gauss_jacobi(order, beta)
        for k in range(2 * order):
            exact = 1.0 / (k + 1 + beta)
            value = float(rule.weights @ rule.nodes**k)
            assert abs(value - exact) <= 1e-12 * abs(exact)


def _reference_rule(kind, order, beta=0.0):
    """The 50-digit ``mp.gauss_quadrature`` rule on [0, 1], rounded to
    nearest doubles, in ascending node order."""
    with mp.workdps(50):
        # (1 + t)**beta on [-1, 1] is 2**beta x**beta at x = (1 + t)/2
        nodes, weights = mp.gauss_quadrature(order, kind, 0, beta)
        scale = mp.mpf(2) ** -(mp.mpf(beta) + 1)
        pairs = sorted(((t + 1) / 2, w * scale) for t, w in zip(nodes, weights))
        return np.array([float(x) for x, _ in pairs]), np.array([float(w) for _, w in pairs])


@pytest.mark.parametrize("rule, kind, order, beta", [
    pytest.param(gauss_legendre, "legendre", 8, 0.0, id="legendre-8"),
    pytest.param(gauss_legendre, "legendre", 24, 0.0, id="legendre-24"),
    pytest.param(gauss_jacobi, "jacobi", 7, -0.25, id="jacobi-7"),
    pytest.param(gauss_jacobi, "jacobi", 20, 1.0 / 6.0, id="jacobi-20"),
    pytest.param(gauss_jacobi, "jacobi", 12, 3.0, id="jacobi-12"),
])
def test_rules_are_correctly_rounded(rule, kind, order, beta):
    # nodes rounded to nearest; each weight is the reciprocal of a rounded
    # Christoffel sum, so it may sit one ulp off
    built = rule(order, beta) if kind == "jacobi" else rule(order)
    nodes, weights = _reference_rule(kind, order, beta)
    assert np.array_equal(built.nodes, nodes)
    assert np.all(np.abs(built.weights - weights) <= np.spacing(weights))


def test_invalid_arguments():
    with pytest.raises(InvalidOrderError):
        gauss_legendre(0)
    with pytest.raises(InvalidBetaError):
        gauss_jacobi(3, -1.0)
    with pytest.raises(InvalidBetaError):
        gauss_jacobi(3, -2.5)


def test_rules_are_cached_and_immutable():
    a = gauss_legendre(9)
    b = gauss_legendre(9)
    assert a is b
    with pytest.raises(ValueError):
        a.nodes[0] = 0.1


@pytest.mark.parametrize("beta", [-0.9999, -0.5, 0.0, 3.0, 20.0, 100.0, 1e3, 1e4])
def test_walk_start_is_feasible_and_close_to_gauss_jacobi(beta):
    # eigenvalue nodes and one Christoffel pass: feasible, and within the
    # eigensolver's accuracy of the correctly rounded rule
    for order in range(1, 101):
        nodes, weights = _jacobi_start(order, beta)
        assert 0.0 < nodes[0] and nodes[-1] < 1.0, order
        assert np.all(np.diff(nodes) > 0.0) and np.all(weights > 0.0), order
        rule = gauss_jacobi(order, beta)
        assert np.abs(nodes / rule.nodes - 1.0).max() <= 1e-11, order
        assert np.abs(weights / rule.weights - 1.0).max() <= 1e-9, order
