"""``tools/rule_diff.py``: only a lost outcome fails it, page faults are a
report line, and walk-start weights are judged at their own nodes."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from muntzquad.classical import _jacobi_start
from test_classical import _reference_rule

_PATH = Path(__file__).resolve().parent.parent / "tools" / "rule_diff.py"
_SPEC = importlib.util.spec_from_file_location("rule_diff", _PATH)
rule_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(rule_diff)


def _record(label, outcome):
    record = {"group": "hard", "label": label, "exponents": [0.0, 1.0], "beta": 0.0, "outcome": outcome,
              **dict.fromkeys(rule_diff.KEYS, 0),
              "newton": {kind: dict.fromkeys(rule_diff.OUTCOMES, 0) for kind in rule_diff.SOLVES}}
    if outcome == "ok":
        record.update(nodes=[0.5], weights=[1.0], diagnostics={"floor_ratio": 0.1}, validation=1e-16)
    else:
        record["error"] = f"{label} failed"
    return record


def _side(outcomes):
    return {"specs": [_record(label, outcome) for label, outcome in outcomes], "classical": {}, "residuals": {}}


@pytest.mark.parametrize("parent, change, status, heading", [
    pytest.param("ok", "NewtonDivergedError", 1, "outcomes lost, built at the parent only: 1", id="lost"),
    pytest.param("ContinuationFailedError", "ok", 0, "outcomes gained, built with the change only: 1",
                 id="gained"),
    pytest.param("ContinuationFailedError", "NewtonDivergedError", 0, "failures with another error class: 1",
                 id="error-class"),
    pytest.param("ok", "ok", 0, "bit-identical rules: 2 of 2", id="unchanged"),
])
def test_only_a_lost_outcome_fails_the_run(parent, change, status, heading, capsys):
    parent_side = _side([("steady", "ok"), ("moving", parent)])
    change_side = _side([("steady", "ok"), ("moving", change)])
    assert rule_diff.report(parent_side, change_side) == status
    out = capsys.readouterr().out
    assert heading in out
    if parent != change:
        assert f"hard:moving: {parent} -> {change}" in out


def test_page_faults_are_a_report_line_only(capsys):
    parent_side, change_side = _side([("steady", "ok")]), _side([("steady", "ok")])
    change_side["specs"][0]["faults"] = 5000
    assert rule_diff.report(parent_side, change_side) == 0
    assert "minor page faults of the compute_rule calls per group (parent -> change):\n  hard: 0 -> 5000" \
        in capsys.readouterr().out


@pytest.mark.parametrize("order, beta", [(4, -0.25), (10, -1.0 + 1e-6), (20, 3.0)])
def test_walk_start_weights_are_judged_at_their_own_nodes(order, beta):
    # the weights are correctly rounded reciprocal Christoffel sums at the
    # unpolished nodes: 0 ulps there, and one ulp once a weight moves by one
    nodes, weights = _jacobi_start(order, beta)
    moved = weights.copy()
    moved[order // 2] = np.nextafter(moved[order // 2], np.inf)
    sides = [[nodes.tolist(), weights.tolist()], [nodes.tolist(), moved.tolist()]]
    assert rule_diff.reference_ulps("hard:x walk start", 1, sides, order, beta) == [0.0, 1.0]
    # the nodes stay on the 50-digit Gauss rule
    reference = _reference_rule("jacobi", order, beta)[0]
    assert rule_diff.reference_ulps("hard:x walk start", 0, sides, order, beta) == \
        [float(np.max(np.abs(nodes - reference) / np.spacing(reference)))] * 2
