"""Property test over the whole admissible domain.

Every spec with ``min(lam) + beta > -1`` (repeats allowed, any order) must
end in one of two ways: a rule that passes ``validation_rows`` at 1e-12, or
a typed ``MuntzQuadError``.  Any other exception fails the test.  The
generator reaches the corners the random specs of criterion 7 stay clear
of: negative exponents under a large beta, pairs summing to ``-1 - beta``
(a numerator factor of the basis kernel cancels a pole), multiplicity
three and four, and near-coincident exponents down to a gap of 1e-13.

``validation_rows`` checks ``x**a`` and ``x**b`` of a near pair on their
own, which cannot see the rule's error along their difference.  Near pairs
therefore also check the divided-difference row ``(x**a - x**b)/(a - b)``
against its exact integral ``-1/((1+a+beta)(1+b+beta))``.
"""

import numpy as np
import pytest

from muntzquad import MuntzQuadError, RuleSpec, compute_rule
from muntzquad.cli import rule_to_file, validation_rows

THRESHOLD = 1e-12
KINDS = ("negative_large_beta", "reflected_pair", "multiplicity", "near_pair")
NEAR_GAPS = (1e-4, 1e-7, 1e-10, 1e-13)
SPECS_PER_KIND = 11


def _ladder(rng, start, count):
    """``count`` distinct exponents from ``start`` upward, gaps in [0.1, 1.2)."""
    return start + np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.2, size=count - 1))])


def _draw(rng, kind, index):
    """One admissible spec: returns ``(exponents, beta, near_pair or None)``."""
    n_nodes = 2 + index % 11
    size = 2 * n_nodes
    beta = float(rng.uniform(-0.9, 3.0))
    edge = -1.0 - beta
    near = None
    if kind == "negative_large_beta":
        beta = float(rng.uniform(3.0, 12.0))
        edge = -1.0 - beta
        lam = _ladder(rng, edge + rng.uniform(0.02, 0.5), size)
    elif kind == "reflected_pair":
        # a + b = -1 - beta; every other draw the pair is one doubled value
        a = edge / 2.0 if index % 2 else float(rng.uniform(edge + 0.02, -0.02))
        lam = np.concatenate([[a, edge - a], _ladder(rng, edge + rng.uniform(0.05, 1.0), size - 2)])
    elif kind == "multiplicity":
        counts = []
        while sum(counts) < size:
            counts.append(int(rng.choice([1, 3, 4])))
        counts[-1] -= sum(counts) - size
        lam = np.repeat(_ladder(rng, edge + rng.uniform(0.05, 1.0), len(counts)), counts)
    else:
        lam = _ladder(rng, edge + rng.uniform(0.05, 1.0), size - 1)
        b = float(lam[int(rng.integers(lam.size))])
        a = b + NEAR_GAPS[index % len(NEAR_GAPS)]
        lam = np.append(lam, a)
        near = (a, b)
    lam = np.array(lam, dtype=float)
    rng.shuffle(lam)
    return lam, beta, near


_RNG = np.random.default_rng(6)
SPECS = [(kind, index, *_draw(_RNG, kind, index)) for index in range(SPECS_PER_KIND) for kind in KINDS]


def divided_difference_error(rule, a, b):
    """Relative error of the rule on ``(x**a - x**b)/(a - b)``, summed stably."""
    d = a - b
    log_x = np.log(rule.nodes)
    approx = float(np.sum(rule.weights * rule.nodes**b * np.expm1(d * log_x) / d))
    beta = rule.spec.beta
    exact = -1.0 / ((1.0 + a + beta) * (1.0 + b + beta))
    return abs((approx - exact) / exact)


@pytest.mark.parametrize("kind, index, lam, beta, near", SPECS,
                         ids=[f"{kind}-{index}" for kind, index, *_ in SPECS])
def test_rule_or_typed_error(kind, index, lam, beta, near):
    spec = RuleSpec(lam, beta)
    assert spec.exponents.min() + beta > -1.0
    try:
        rule = compute_rule(spec)
    except MuntzQuadError as exc:
        pytest.skip(f"typed {type(exc).__name__}: {exc}")
    worst = max(err for _, err in validation_rows(rule_to_file(rule)))
    assert worst <= THRESHOLD, worst
    if near is not None:
        assert divided_difference_error(rule, *near) <= THRESHOLD
