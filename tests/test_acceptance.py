"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  The reference nodes and weights live in ``table_data.py`` frozen at
17 significant digits.
"""

import math
import time

import numpy as np
import pytest

from muntzquad import eval_all, moments, refine
from muntzquad.classical import gauss_legendre
from muntzquad.cli import (
    _integrand,
    rule_to_file,
    sequence_family,
    validation_rows,
)
from muntzquad.muntz import _basis_batch
from muntzquad.solver import (
    RuleSpec,
    apply_rule,
    compute_rule,
    transform_to_unit_weight,
)

from quad_oracle import FINE_SHAPES, FULL_SHAPES, adaptive_integrate, basis_on
from table_data import (
    EXAMPLE1_RULE_20,
    EXAMPLE1_RULE_40,
    EXAMPLE2_RULE_20,
    EXAMPLE2_RULE_40,
)

NODE_TOL = 1e-12  # absolute
WEIGHT_TOL = 1e-11  # relative


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def example1_rules():
    started = time.time()
    rules = {
        20: compute_rule(RuleSpec(sequence_family("example1", 20), -0.25)),
        40: compute_rule(RuleSpec(sequence_family("example1", 40), -0.25)),
    }
    rules["seconds"] = time.time() - started
    return rules


@pytest.fixture(scope="module")
def example2_rules():
    started = time.time()
    rules = {
        20: compute_rule(RuleSpec(sequence_family("example2", 20), -1.0 / 3.0)),
        40: compute_rule(RuleSpec(sequence_family("example2", 40), -1.0 / 3.0)),
    }
    rules["seconds"] = time.time() - started
    return rules


def _table_errors(rule, reference):
    ref = np.array(reference)
    node_err = float(np.abs(rule.nodes - ref[:, 0]).max())
    weight_err = float(np.abs((rule.weights - ref[:, 1]) / ref[:, 1]).max())
    return node_err, weight_err


def test_criterion_1_endpoint_singular_family_tables(example1_rules):
    worst_node = worst_weight = 0.0
    for size, reference in ((20, EXAMPLE1_RULE_20), (40, EXAMPLE1_RULE_40)):
        node_err, weight_err = _table_errors(example1_rules[size], reference)
        worst_node = max(worst_node, node_err)
        worst_weight = max(worst_weight, weight_err)
    ok = worst_node <= NODE_TOL and worst_weight <= WEIGHT_TOL
    report(
        "criterion 1 (reference rule, distinct exponents)",
        ok,
        f"node abs {worst_node:.2e} (tol {NODE_TOL:g}), weight rel {worst_weight:.2e} "
        f"(tol {WEIGHT_TOL:g}), built in {example1_rules['seconds']:.0f}s",
    )


def test_criterion_2_repeated_exponent_family_tables(example2_rules):
    worst_node = worst_weight = 0.0
    for size, reference in ((20, EXAMPLE2_RULE_20), (40, EXAMPLE2_RULE_40)):
        node_err, weight_err = _table_errors(example2_rules[size], reference)
        worst_node = max(worst_node, node_err)
        worst_weight = max(worst_weight, weight_err)
    ok = worst_node <= NODE_TOL and worst_weight <= WEIGHT_TOL
    report(
        "criterion 2 (reference rule, repeated exponents)",
        ok,
        f"node abs {worst_node:.2e} (tol {NODE_TOL:g}), weight rel {worst_weight:.2e} "
        f"(tol {WEIGHT_TOL:g}), built in {example2_rules['seconds']:.0f}s",
    )


def test_criterion_3_relative_error_tables(example1_rules, example2_rules):
    rows1 = validation_rows(rule_to_file(example1_rules[20]))
    rows2 = validation_rows(rule_to_file(example2_rules[20]))
    assert len(rows1) == 40
    assert len(rows2) == 40
    labels2 = [label for label, _ in rows2]
    assert any("log" in label for label in labels2)
    worst1 = max(err for _, err in rows1)
    worst2 = max(err for _, err in rows2)
    ok = worst1 <= 5e-14 and worst2 <= 5e-14
    report(
        "criterion 3 (basis exactness reports)",
        ok,
        f"40 monomial rows worst {worst1:.2e}; 40 power/log rows worst {worst2:.2e} (tol 5e-14)",
    )


def test_criterion_4_singular_integrand_convergence():
    (psi, psi_exact), (bessel, bessel_exact) = _integrand("psi"), _integrand("bessel")
    case2 = compute_rule(RuleSpec(sequence_family("case2", 30), 0.0))
    psi_err = abs(apply_rule(case2, psi) - psi_exact)
    bessel_err = abs(apply_rule(case2, bessel) - bessel_exact)
    case1 = compute_rule(RuleSpec(sequence_family("case1", 30), 0.0))
    plain_err = abs(apply_rule(case1, psi) - psi_exact)
    ok = psi_err <= 1e-8 and bessel_err <= 1e-8 and plain_err > 1e-6
    report(
        "criterion 4 (log-singular integrands at 30 nodes)",
        ok,
        f"log-aware rule: psi {psi_err:.2e}, bessel {bessel_err:.2e} (tol 1e-8); "
        f"plain Gauss-Legendre: psi {plain_err:.2e} (must exceed 1e-6)",
    )


def test_criterion_5_one_point_rules_closed_form():
    values = -0.4 + 3.4 * (np.arange(5) + 0.5) / 5.0
    worst_node = worst_weight = 0.0
    for l0 in values:
        for l1 in values:
            rule = compute_rule(RuleSpec(np.array([l0, l1]), 0.0))
            if l0 == l1:
                x_ref = math.exp(-1.0 / (1.0 + l0))
            else:
                x_ref = ((1.0 + l0) / (1.0 + l1)) ** (1.0 / (l1 - l0))
            w_ref = x_ref ** (-l0) / (1.0 + l0)
            worst_node = max(worst_node, abs(rule.nodes[0] - x_ref))
            worst_weight = max(worst_weight, abs(rule.weights[0] - w_ref) / w_ref)
    ok = worst_node <= 1e-12 and worst_weight <= 1e-12
    report(
        "criterion 5 (closed-form one-point oracle, 5x5 grid)",
        ok,
        f"node {worst_node:.2e}, weight {worst_weight:.2e} (tol 1e-12)",
    )


def test_criterion_6_degenerates_to_gauss_legendre():
    worst = 0.0
    for n_nodes in (2, 5, 10, 20):
        rule = compute_rule(RuleSpec(np.arange(2.0 * n_nodes), 0.0))
        gl = gauss_legendre(n_nodes)
        worst = max(
            worst,
            float(np.abs(rule.nodes - gl.nodes).max()),
            float(np.abs(rule.weights - gl.weights).max()),
        )
    report(
        "criterion 6 (integer ladder equals Gauss-Legendre)",
        worst <= 1e-12,
        f"worst node/weight deviation {worst:.2e} (tol 1e-12)",
    )


def _random_spec(rng):
    n_nodes = int(rng.integers(2, 14))  # N <= 12
    beta = float(rng.uniform(-0.9, 2.0))
    low = max(-0.45, -0.39 - beta / 2.0)
    distinct = np.sort(rng.uniform(low, 3.0, size=2 * n_nodes))
    keep = [distinct[0]]
    for v in distinct[1:]:
        if v - keep[-1] >= 0.05:
            keep.append(v)
    lam = list(keep)
    while len(lam) < 2 * n_nodes:  # refill with repeats of existing values
        lam.append(keep[int(rng.integers(len(keep)))])
    lam = np.array(lam[: 2 * n_nodes])
    rng.shuffle(lam)
    return RuleSpec(lam, beta)


def test_criterion_7_property_suite_on_random_specs():
    started = time.time()
    rng = np.random.default_rng(2026)
    checked = {"feasibility": 0, "permutation": 0, "moments": 0, "orthogonality": 0,
               "partition": 0, "config": 0}

    for index in range(50):
        spec = _random_spec(rng)
        lam, beta = spec.exponents, spec.beta
        m = moments(lam, beta)

        rule = compute_rule(spec)
        assert rule.nodes[0] > 0 and rule.nodes[-1] < 1
        assert np.all(np.diff(rule.nodes) > 0) and np.all(rule.weights > 0)
        residual = refine.exact_residual(rule.nodes, rule.weights, refine.pole_expansion(lam, beta))
        assert np.abs(residual).max() <= 1e-13 * max(1.0, np.abs(m).max())
        checked["feasibility"] += 1

        permuted = np.array(lam)
        rng.shuffle(permuted)
        rule_p = compute_rule(RuleSpec(permuted, beta))
        assert np.abs(rule.nodes - rule_p.nodes).max() <= 1e-12
        assert np.abs(rule.weights - rule_p.weights).max() <= 1e-12
        checked["permutation"] += 1

        # shared basis evaluations make the integration oracle affordable
        shifted = lam + beta / 2.0
        cache = {}

        def basis(xs):
            key = xs.tobytes()
            if key not in cache:
                values = _basis_batch(shifted, xs)
                cache[key] = values * xs[None, :] ** (-beta / 2.0)
            return cache[key]

        for n in range(min(lam.size, 9)):
            oracle = adaptive_integrate(
                lambda xs, n=n: basis(xs)[n] * xs**beta, 1e-12, vectorized=True
            )
            # the oracle itself has an absolute noise floor around 1e-13, so
            # tiny moments cannot be checked to a pure relative bound
            assert abs(m[n] - oracle) <= max(1e-9 * abs(m[n]), 3e-13)
        checked["moments"] += 1

        top = min(lam.size - 1, 6)
        for n in range(top + 1):
            for mm in range(n + 1):
                value = adaptive_integrate(
                    lambda xs, n=n, mm=mm: basis(xs)[n] * basis(xs)[mm] * xs**beta,
                    1e-10,
                    vectorized=True,
                )
                if n == mm:
                    exact = 1.0 / (2.0 * lam[n] + beta + 1.0)
                    assert abs(value - exact) <= 1e-8 * abs(exact)
                else:
                    assert abs(value) <= 1e-8
        checked["orthogonality"] += 1

        assert np.all(eval_all(lam, 1.0, beta) == 1.0)
        checked["partition"] += 1

        for x in (1e-6, 1e-3, 0.1, 0.5, 0.9):
            va = basis_on(FULL_SHAPES, shifted, np.array([x]))
            vb = basis_on(FINE_SHAPES, shifted, np.array([x]))
            # basis values near 0 reach the hundreds for these random draws,
            # so the agreement bound scales with the value magnitude
            scale = max(1.0, float(np.abs(vb).max()))
            assert np.abs(va - vb).max() <= 1e-12 * scale
        checked["config"] += 1

    elapsed = time.time() - started
    ok = all(count == 50 for count in checked.values())
    report(
        "criterion 7 (property suite, 50 random specs)",
        ok,
        f"{checked} in {elapsed:.0f}s",
    )


def test_criterion_8_unit_weight_transform(example1_rules):
    rule = transform_to_unit_weight(example1_rules[20])
    kappa = 1.0 / (1.0 - 0.25)
    worst = 0.0
    for lam in sequence_family("example1", 20):
        value = apply_rule(rule, lambda x, e=kappa * lam: x**e)
        exact = 1.0 / (kappa * lam + 1.0)
        worst = max(worst, abs(value - exact) / abs(exact))
    report(
        "criterion 8 (unit-weight transform exactness)",
        worst <= 1e-12,
        f"worst monomial relative error {worst:.2e} (tol 1e-12)",
    )
