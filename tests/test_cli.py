import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from muntzquad.classical import gauss_legendre
from muntzquad.cli import (
    integrand_psi,
    main,
    parse,
    rule_to_file,
    sequence_family,
    serialize,
)
from muntzquad import cli
from muntzquad.errors import DomainError, InadmissibleSequenceError, NewtonDivergedError
from muntzquad.solver import RuleSpec, compute_rule
from quad_oracle import adaptive_integrate
from test_solver import (
    HUGE_BETA_SPECS,
    OFF_FLOOR_SPECS,
    OVERFLOW_SPECS,
    UNDERFLOW_SPECS,
    UNREACHABLE_SPECS,
    WALK_FAILURE_SPECS,
    WIDE_SPREAD_SPECS,
)

SRC = Path(__file__).resolve().parent.parent / "src"


class TestSequenceFamilies:
    def test_case_ladders(self):
        assert np.array_equal(sequence_family("case1", 3), [0, 1, 2, 3, 4, 5])
        assert np.array_equal(sequence_family("case2", 3), [0, 0, 1, 1, 2, 2])
        assert np.array_equal(sequence_family("case3", 3), [0, 0, 0, 1, 1, 1])

    def test_reference_families(self):
        lam = sequence_family("example1", 2)
        assert np.allclose(lam, [2 / 3, -2 / 3, 5 / 3, 1 / 3])
        lam = sequence_family("example2", 2)
        assert np.allclose(lam, [-0.5, -0.5, 0.5, 0.5])

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            sequence_family("case9", 3)


class TestIntegrands:
    def test_bessel_integrand_values(self):
        # J0(x) (1 + log x): J0(1) at x = 1, and J0(0.5) = 0.938469807240813
        integrand, _ = cli._integrand("bessel")
        assert integrand(1.0) == pytest.approx(0.7651976865579666, abs=1e-15)
        assert integrand(0.5) == pytest.approx(0.938469807240813 * (1.0 - math.log(2.0)), abs=1e-15)

    def test_psi_values(self):
        assert integrand_psi(1.0) == pytest.approx(0.0, abs=1e-15)
        assert integrand_psi(0.5) == pytest.approx(-math.log(2) / 3.0, abs=1e-15)

    def test_psi_domain(self):
        with pytest.raises(DomainError):
            integrand_psi(0.0)

    def test_psi_exact_integral(self):
        value = adaptive_integrate(integrand_psi, 1e-11)
        assert value == pytest.approx(1.0 - math.pi**2 / 6.0, abs=1e-10)


@pytest.fixture(scope="module")
def rule_file():
    return rule_to_file(compute_rule(RuleSpec(sequence_family("example1", 3), -0.25)))


class TestSerialization:

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_round_trip_is_byte_identical(self, rule_file, fmt):
        text = serialize(rule_file, fmt)
        again = serialize(parse(text), fmt)
        assert text == again

    def test_json_schema(self, rule_file):
        payload = json.loads(serialize(rule_file, "json"))
        assert set(payload) == {"beta", "lambda", "nodes", "weights", "meta"}
        assert {"n", "residual", "version"} <= set(payload["meta"])
        assert payload["nodes"] == sorted(payload["nodes"])
        assert len(payload["lambda"]) == 2 * len(payload["nodes"])

    def test_csv_header(self, rule_file):
        lines = serialize(rule_file, "csv").splitlines()
        assert "k,node,weight" in lines
        first_row = lines[lines.index("k,node,weight") + 1].split(",")
        assert first_row[0] == "0"
        assert float(first_row[1]) == rule_file.nodes[0]

    def test_text_uses_table_number_convention(self, rule_file):
        body = serialize(rule_file, "text")
        assert "(" in body.splitlines()[-1]
        assert parse(body).nodes[0] == rule_file.nodes[0]

    def test_parse_rejects_inconsistent_lengths(self):
        payload = {
            "beta": 0.0,
            "lambda": [0.0, 1.0, 2.0],
            "nodes": [0.5],
            "weights": [1.0],
            "meta": {},
        }
        with pytest.raises(ValueError):
            parse(json.dumps(payload))

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_parse_rejects_inadmissible_spec(self, fmt):
        bad = cli.RuleFile(0.0, np.array([-1.0, 0.0]), np.array([0.5]), np.array([1.0]), {"n": 1})
        with pytest.raises(InadmissibleSequenceError):
            parse(serialize(bad, fmt))


class TestCommands:
    def test_rule_case1_matches_gauss_legendre(self, tmp_path, capsys):
        out = tmp_path / "rule.json"
        code = main(["rule", "--family", "case1", "--n", "5", "--beta", "0", "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        gl = gauss_legendre(5)
        assert np.abs(np.array(payload["nodes"]) - gl.nodes).max() <= 1e-12
        assert np.abs(np.array(payload["weights"]) - gl.weights).max() <= 1e-12

    def test_rule_unit_weight_flag(self, tmp_path):
        out = tmp_path / "rule.json"
        code = main(["rule", "--family", "case1", "--n", "3", "--beta", "1.0", "--format", "json",
                     "--unit-weight", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["beta"] == 0.0

    def test_rule_inadmissible_beta_exits_2(self, capsys):
        assert main(["rule", "--family", "case1", "--n", "3", "--beta", "-2"]) == 2
        assert "min(lambda) + beta > -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rule", "validate"])
    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_non_finite_beta_exits_2(self, command, beta, capsys):
        assert main([command, "--family", "case1", "--n", "2", "--beta", beta]) == 2
        assert "beta must be finite" in capsys.readouterr().err

    def test_rule_requires_spec_source(self):
        assert main(["rule", "--n", "3"]) == 2

    def test_lambda_file_input(self, tmp_path):
        lam_file = tmp_path / "lambda.txt"
        lam_file.write_text("0.0\n1.0\n2.0\n3.0\n")
        out = tmp_path / "rule.json"
        assert main(["rule", "--lambda-file", str(lam_file), "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["lambda"] == [0.0, 1.0, 2.0, 3.0]

    def test_odd_length_lambda_file_exits_2(self, tmp_path, capsys):
        lam_file = tmp_path / "lambda.txt"
        lam_file.write_text("0.0\n1.0\n2.0\n")
        assert main(["rule", "--lambda-file", str(lam_file)]) == 2
        assert "even number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rule", "validate"])
    @pytest.mark.parametrize("name", ["missing.txt", "."])
    def test_unreadable_lambda_file_exits_2(self, command, name, tmp_path, capsys):
        assert main([command, "--lambda-file", str(tmp_path / name)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_rule_cancelled_pole_family(self, capsys):
        # example2 at beta = 0 pairs -1/2 with -1/2: lam_i + lam_j + beta + 1 = 0
        assert main(["rule", "--family", "example2", "--n", "3", "--beta", "0", "--format", "json"]) == 0
        rule_file = parse(capsys.readouterr().out)
        assert max(err for _, err in cli.validation_rows(rule_file)) <= 1e-12

    def test_validate_fresh_rule_passes(self, capsys):
        code = main(["validate", "--family", "example2", "--n", "4", "--beta", f"{-1/3}"])
        captured = capsys.readouterr()
        assert code == 0
        assert "worst" in captured.out

    def test_validate_rule_file_and_corruption(self, tmp_path):
        out = tmp_path / "rule.json"
        assert main(["rule", "--family", "example1", "--n", "4", "--beta", "-0.25",
                     "--format", "json", "--out", str(out)]) == 0
        assert main(["validate", str(out)]) == 0
        payload = json.loads(out.read_text())
        payload["weights"][0] *= 1.0 + 1e-6
        corrupted = tmp_path / "bad.json"
        corrupted.write_text(json.dumps(payload))
        assert main(["validate", str(corrupted)]) == 1

    def test_validate_parse_failure_exits_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a rule file at all\n")
        assert main(["validate", str(bad)]) == 2

    @pytest.mark.parametrize("payload, message", [
        pytest.param({"beta": None, "lambda": [0, 1], "nodes": [0.5], "weights": [1.0]},
                     "'beta' must be a number", id="null-beta"),
        pytest.param({"beta": 0, "lambda": [0, 1], "nodes": [0.5], "weights": [1.0], "meta": 5},
                     "'meta' must be a JSON object", id="meta-not-an-object"),
        pytest.param({"beta": 0, "lambda": [0, 1], "nodes": [[0.5]], "weights": [1.0]},
                     "'nodes' must be a list of numbers", id="2-D-nodes"),
        pytest.param({"beta": 0, "lambda": [0, "1"], "nodes": [0.5], "weights": [1.0]},
                     "'lambda' must be a list of numbers", id="string-exponent"),
        pytest.param({"beta": 0, "lambda": [0, 1], "nodes": [0.5], "weights": [None]},
                     "'weights' must be a list of numbers", id="null-weight"),
    ])
    def test_validate_malformed_json_values_exit_2(self, tmp_path, capsys, payload, message):
        path = tmp_path / "rule.json"
        path.write_text(json.dumps(payload))
        assert main(["validate", str(path)]) == 2
        assert f"cannot parse rule file: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", [[-1.0, 0.0], [-3.0, 0.0]])
    def test_validate_inadmissible_rule_file_exits_2(self, tmp_path, capsys, lam):
        path = tmp_path / "rule.json"
        path.write_text(json.dumps({"beta": 0.0, "lambda": lam, "nodes": [0.5], "weights": [1.0], "meta": {}}))
        assert main(["validate", str(path)]) == 2
        assert "min(lambda) + beta > -1" in capsys.readouterr().err

    def test_validate_non_finite_beta_rule_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "rule.json"
        path.write_text('{"beta": NaN, "lambda": [0, 1], "nodes": [0.5], "weights": [1.0]}')
        assert main(["validate", str(path)]) == 2
        assert "beta must be finite" in capsys.readouterr().err

    def test_validate_fails_a_rule_with_a_negative_node(self, tmp_path, capsys):
        # log of a negative node makes the x^0 log row NaN, which is not <= threshold
        path = tmp_path / "rule.json"
        path.write_text(json.dumps(
            {"beta": 0, "lambda": [0, 0], "nodes": [-0.36787944117144233], "weights": [1.0]}))
        assert main(["validate", str(path)]) == 1
        assert "worst: nan" in capsys.readouterr().out
        # in a fresh interpreter, where numpy's warnings reach stderr
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        run = subprocess.run([sys.executable, "-m", "muntzquad", "validate", str(path)],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 1
        assert "worst: nan" in run.stdout
        assert "RuntimeWarning" not in run.stderr

    @pytest.mark.parametrize("n", [12, 20])
    def test_clustered_exponents_validate(self, n, tmp_path):
        # n exponents 1 + k*1e-3: the polish needs more than the default
        # 30 + 1.2*n digits, or its residual sits far above the floor
        lam_file = tmp_path / "lambda.txt"
        lam_file.write_text("".join(f"{1 + k * 1e-3!r}\n" for k in range(n)))
        assert main(["validate", "--lambda-file", str(lam_file), "--threshold", "1e-12"]) == 0

    def test_validate_threshold_flag(self, tmp_path):
        out = tmp_path / "rule.json"
        main(["rule", "--family", "case2", "--n", "3", "--format", "json", "--out", str(out)])
        assert main(["validate", str(out), "--threshold", "1e-30"]) == 1

    @pytest.mark.parametrize("command", ["rule", "validate"])
    def test_construction_error_exits_1(self, command, monkeypatch, capsys):
        def diverge(spec):
            raise NewtonDivergedError("no convergence")

        monkeypatch.setattr(cli, "compute_rule", diverge)
        assert main([command, "--family", "case1", "--n", "2"]) == 1
        assert "no convergence" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rule", "validate"])
    @pytest.mark.parametrize("lam, beta", UNDERFLOW_SPECS)
    def test_weight_underflow_exits_1(self, command, lam, beta, tmp_path, capsys):
        lam_file = tmp_path / "lambda.txt"
        lam_file.write_text("\n".join(repr(float(v)) for v in lam) + "\n")
        assert main([command, "--lambda-file", str(lam_file), "--beta", repr(beta)]) == 1
        assert "rule construction failed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lam, beta",
        UNREACHABLE_SPECS + WALK_FAILURE_SPECS + OFF_FLOOR_SPECS + OVERFLOW_SPECS + WIDE_SPREAD_SPECS + HUGE_BETA_SPECS,
    )
    def test_unreachable_exponent_exits_1(self, lam, beta, tmp_path, capsys):
        lam_file = tmp_path / "lambda.txt"
        lam_file.write_text("\n".join(repr(float(v)) for v in lam) + "\n")
        assert main(["rule", "--lambda-file", str(lam_file), "--beta", repr(beta)]) == 1
        err = capsys.readouterr().err
        assert "rule construction failed" in err
        assert "Traceback" not in err

    def test_convergence_table(self, capsys):
        code = main(["convergence", "--family", "case2", "--integrand", "psi",
                     "--n-range", "4:8:4", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert lines[0] == "n,error"
        assert len(lines) == 3

    def test_convergence_bad_range_exits_2(self):
        assert main(["convergence", "--family", "case1", "--integrand", "psi", "--n-range", "5:1:1"]) == 2

    def test_convergence_inadmissible_beta_exits_2(self, capsys):
        assert main(["convergence", "--family", "example1", "--beta", "-0.5", "--n-range", "2:2:1"]) == 2
        assert "min(lambda) + beta > -1" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["rule", "--format", "yaml", "--family", "case1", "--n", "2"])
        assert info.value.code == 2
