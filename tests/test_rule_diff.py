"""The exit status of ``tools/rule_diff.py``: only a lost outcome fails it."""

import importlib.util
from pathlib import Path

import pytest

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
