"""The arbitrary-precision polish residual against two independent oracles.

``per_node_residual`` is the earlier per-node pole expansion (poles of
order <= 2 only, and no numerator factor may vanish at a pole); the
separable form must reproduce it bit for bit.  ``contour_residual``
integrates ``x**t R_n(t)`` around a circle enclosing every pole with the
trapezoidal rule, which makes no assumption on pole multiplicity.
"""

import ast
import dataclasses
import inspect
import time

import mpmath as mp
import numpy as np
import pytest

from muntzquad import muntz
from muntzquad.classical import gauss_jacobi
from muntzquad.cli import sequence_family
from muntzquad.muntz import moment_recurrence
from muntzquad.refine import default_prec, eval_all, exact_residual, pole_expansion


def _moments_mp(lam, beta_q):
    out = [1 / (1 + mp.mpf(lam[0]) + beta_q)]
    for n in range(1, lam.size):
        out.append(out[-1] * (-mp.mpf(lam[n - 1])) / (1 + mp.mpf(lam[n]) + beta_q))
    return out


def per_node_residual(nodes, weights, exponents, beta):
    """Residual from the basis expanded over its poles at each node in turn."""
    lam = np.asarray(exponents, dtype=float)
    assert np.unique(lam, return_counts=True)[1].max() <= 2
    with mp.workdps(30 + int(1.2 * lam.size)):
        beta_q = mp.mpf(beta)
        shifted = [mp.mpf(v) + beta_q / 2 for v in lam]
        poles = sorted(set(shifted))
        columns = []
        for x in nodes:
            xq = mp.mpf(float(x))
            ln_x = mp.log(xq)
            powers = {p: xq**p for p in poles}
            g = {p: mp.mpf(1) for p in poles}
            s = {p: mp.mpf(0) for p in poles}
            count = {p: 0 for p in poles}
            out = []
            for n in range(lam.size):
                if n:
                    for p in poles:
                        factor = p + shifted[n - 1] + 1
                        g[p] *= factor
                        s[p] += 1 / factor
                for p in poles:
                    if p == shifted[n]:
                        count[p] += 1
                    else:
                        g[p] /= p - shifted[n]
                        s[p] -= 1 / (p - shifted[n])
                total = mp.mpf(0)
                for p in poles:
                    if count[p] == 1:
                        total += g[p] * powers[p]
                    elif count[p] == 2:
                        total += g[p] * (s[p] + ln_x) * powers[p]
                out.append(total)
            columns.append(out)
        moments = _moments_mp(lam, beta_q)
        factors = [mp.mpf(float(x)) ** (-beta_q / 2) * mp.mpf(float(w)) for x, w in zip(nodes, weights)]
        return np.array([
            float(mp.fsum(columns[k][n] * factors[k] for k in range(len(factors))) - moments[n])
            for n in range(lam.size)
        ])


def contour_residual(nodes, weights, exponents, beta, points=256, digits=50):
    """Residual with each basis value from a trapezoidal contour integral."""
    lam = np.asarray(exponents, dtype=float)
    with mp.workdps(digits):
        beta_q = mp.mpf(beta)
        shifted = [mp.mpf(v) + beta_q / 2 for v in lam]
        center = (min(shifted) + max(shifted)) / 2
        radius = (max(shifted) - min(shifted)) / 2 + 1
        factors = [mp.mpf(float(x)) ** (-beta_q / 2) * mp.mpf(float(w)) for x, w in zip(nodes, weights)]
        totals = [mp.mpc(0)] * lam.size
        for i in range(points):
            arm = radius * mp.expjpi(mp.mpf(2 * i) / points)
            t = center + arm
            kernel = 1 / (t - shifted[0])
            weight_sum = mp.fsum(f * mp.mpf(float(x)) ** t for f, x in zip(factors, nodes))
            for n in range(lam.size):
                if n:
                    kernel *= (t + shifted[n - 1] + 1) / (t - shifted[n])
                totals[n] += kernel * weight_sum * arm
        moments = _moments_mp(lam, beta_q)
        return np.array([float((totals[n] / points).real - moments[n]) for n in range(lam.size)])


def _perturbed_jacobi(n, beta, seed=7):
    rule = gauss_jacobi(n, beta)
    rng = np.random.default_rng(seed)
    nodes = np.sort(rule.nodes * (1.0 + 1e-3 * rng.standard_normal(n)))
    weights = rule.weights * (1.0 + 1e-3 * rng.standard_normal(n))
    return nodes, weights


@pytest.mark.parametrize(
    "family, n, beta",
    [("example1", 5, -0.25), ("example1", 8, 0.4), ("example2", 6, -1.0 / 3.0), ("case2", 5, 0.7)],
)
def test_bit_identical_to_per_node_expansion(family, n, beta):
    lam = np.sort(sequence_family(family, n))
    nodes, weights = _perturbed_jacobi(n, beta)
    assert np.array_equal(exact_residual(nodes, weights, pole_expansion(lam, beta)),
                          per_node_residual(nodes, weights, lam, beta))


def test_one_expansion_serves_any_node_set():
    # the expansion depends on the exponents only: reused for two rules it
    # must reproduce the oracle bit for bit at both
    lam, beta = np.sort(sequence_family("example1", 6)), -0.25
    expansion = pole_expansion(lam, beta)
    for seed in (7, 8):
        nodes, weights = _perturbed_jacobi(6, beta, seed)
        assert np.array_equal(exact_residual(nodes, weights, expansion),
                              per_node_residual(nodes, weights, lam, beta))


def _random_ladders(count=24, seed=11):
    """Distinct exponents with gaps uniform in [0.1, 1.2): no gap repeats,
    so every power in the chain of ``_node_sums`` takes its own step."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        n = int(rng.integers(2, 9))
        beta = float(rng.uniform(-0.5, 1.5))
        start = -1.0 - beta + float(rng.uniform(0.05, 1.0))
        lam = start + np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.2, size=2 * n - 1))])
        yield pytest.param(lam, beta, id=f"ladder-{index}")


@pytest.mark.parametrize("lam, beta", list(_random_ladders()) + [
    pytest.param(2.0 ** np.arange(16) - 1.0, 0.0, id="powers-of-2"),  # max lambda 32767
    pytest.param(1.5 ** np.arange(20) - 1.0, 0.3, id="powers-of-1.5"),
    pytest.param(np.arange(16.0) ** 2, -0.5, id="squares"),
])
def test_chained_powers_match_per_node_expansion(lam, beta):
    nodes, weights = _perturbed_jacobi(lam.size // 2, beta)
    assert np.array_equal(exact_residual(nodes, weights, pole_expansion(lam, beta)),
                          per_node_residual(nodes, weights, lam, beta))


HIGH_MULTIPLICITY = [
    pytest.param(sequence_family("case3", 4), 0.0, id="multiplicity-3"),
    pytest.param(np.repeat([0.0, 1.0], 4), 0.5, id="multiplicity-4"),
    pytest.param(np.array([-1.2, -0.3, 0.4, 1.1, 1.1, 2.0]), 0.5, id="pair-sum-minus-one-minus-beta"),
    pytest.param(np.arange(6.0) - 0.5, 0.0, id="numerator-vanishes-at-pole"),
]


@pytest.mark.parametrize("lam, beta", HIGH_MULTIPLICITY)
def test_matches_contour_oracle(lam, beta):
    nodes, weights = _perturbed_jacobi(lam.size // 2, beta)
    got = exact_residual(nodes, weights, pole_expansion(lam, beta))
    want = contour_residual(nodes, weights, lam, beta)
    np.testing.assert_allclose(got, want, rtol=4e-16, atol=1e-30)


@pytest.mark.parametrize("lam, beta", HIGH_MULTIPLICITY + [
    pytest.param(np.repeat(np.arange(3.0), 6), -0.5, id="multiplicity-6"),
])
def test_never_returns_none(lam, beta):
    nodes, weights = _perturbed_jacobi(lam.size // 2, beta)
    residual = exact_residual(nodes, weights, pole_expansion(lam, beta))
    assert isinstance(residual, np.ndarray)
    assert residual.shape == lam.shape
    assert np.all(np.isfinite(residual))


def test_vanishes_at_an_exact_rule():
    # one node, {x^0, x^1}: the midpoint rule is exact
    assert np.array_equal(exact_residual([0.5], [1.0], pole_expansion([0.0, 1.0], 0.0)), [0.0, 0.0])


@pytest.mark.parametrize("lam, beta", [
    pytest.param(np.sort(sequence_family("example1", 20)), -0.25, id="example1-n20"),
    pytest.param(sequence_family("case3", 10), 0.0, id="case3-n10"),
    pytest.param(np.arange(8.0), 0.5, id="leading-zero-exponent"),  # every later moment is 0
] + list(_random_ladders(count=6, seed=5)))
def test_raw_moment_recurrence_matches_mpmath_numbers(lam, beta):
    # at the 40 digits of ``moments`` and at the polish's working digits
    for digits in (40, 30 + int(1.2 * lam.size)):
        with mp.workdps(digits):
            want = _moments_mp(lam, mp.mpf(beta))
        got = moment_recurrence(lam, beta, mp.libmp.dps_to_prec(digits))
        assert got == [m._mpf_ for m in want]


@pytest.mark.parametrize("lam, beta, x", [
    pytest.param([0.0, 1.0], 1.0, 0.5, id="0-1"),
    pytest.param([0.3, 1.7, 2.5, 2.5], 0.5, 0.3, id="double-pole"),
    pytest.param(np.sort(sequence_family("example1", 4)), -0.25, 1e-3, id="example1-n4"),
])
def test_eval_all_is_the_residual_of_one_node_against_zero_moments(lam, beta, x):
    # the row sums of the one-node rule x with weight 1, rounded once: bit for
    # bit the residual against zero moments, at a precision that settles at once
    zero = dataclasses.replace(pole_expansion(lam, beta), moments=[mp.libmp.fzero] * len(lam))
    assert np.array_equal(eval_all(lam, x, beta), exact_residual([x], [1.0], zero))


def test_no_sum_builds_a_giant_integer():
    # x**a lies about a*|log2 x| bits below the other terms (1.4e200 bits at
    # a = 1e200): each sum drops it instead of aligning it
    start = time.perf_counter()
    for a in (1e7, 1e18, 1e200):
        for x in (0.5, 1e-3):
            assert np.array_equal(eval_all([0.0, a], x), [1.0, ((a + 1) * x**a - 1) / a])
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", [12, 20])
def test_clustered_exponents_raise_the_precision(n):
    # exponents 1e-3 apart cancel by about 1.5*n digits, more than the
    # default 30 + 1.2*n digits leave room for
    assert pole_expansion(np.arange(n) * 1e-3, 1.0).prec > default_prec(n)


def test_spread_exponents_keep_the_default_precision():
    lam = np.sort(sequence_family("example1", 20))
    assert pole_expansion(lam, -0.25).prec == default_prec(lam.size)


def test_muntz_imports_nothing_of_refine():
    # refine imports muntz; an import back, lazy or not, would close a cycle
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(muntz))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert "refine" not in imported and "muntzquad.refine" not in imported
