"""Command line interface: compute rules, validate exactness, study convergence.

Subcommands:
  rule         build a quadrature rule and write it as text, CSV, or JSON
  validate     check a rule file (or a freshly built rule) against the
               analytic integrals of its power/log basis
  convergence  error-versus-size table for the built-in test integrands

Exit codes: 0 success, 1 numerical failure (construction failed or a
validation threshold was exceeded), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import mpmath
import numpy as np

from . import __version__
from .errors import DomainError, MuntzQuadError
from .muntz import ensure_admissible
from .solver import QuadratureRule, RuleSpec, apply_rule, compute_rule, transform_to_unit_weight

FAMILIES = ("case1", "case2", "case3", "example1", "example2")


def sequence_family(name: str, n_nodes: int) -> np.ndarray:
    """Exponent sequence of length 2*n_nodes for a named family.

    caseT ladders repeat each integer T times; example1/example2 are the
    endpoint-singular reference families.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node")
    k = np.arange(n_nodes, dtype=float)
    out = np.empty(2 * n_nodes)
    if name == "case1":
        return np.arange(2 * n_nodes, dtype=float)
    if name == "case2":
        return np.arange(2 * n_nodes, dtype=float) // 2
    if name == "case3":
        return np.arange(2 * n_nodes, dtype=float) // 3
    if name == "example1":
        out[0::2] = k + 2.0 / 3.0
        out[1::2] = k - 2.0 / 3.0
        return out
    if name == "example2":
        out[0::2] = k - 0.5
        out[1::2] = k - 0.5
        return out
    raise ValueError(f"unknown family {name!r}")


def integrand_psi(x: float) -> float:
    """Oscillation plus an endpoint-log part: sin(4 pi x) + (1-x) log(x)/(1+x)."""
    x = float(x)
    if not 0.0 < x <= 1.0:
        raise DomainError(f"integrand defined on (0, 1], got {x}")
    return math.sin(4.0 * math.pi * x) + (1.0 - x) * math.log(x) / (1.0 + x)


PSI_EXACT = 1.0 - math.pi**2 / 6.0
BESSEL_LOG_EXACT = -0.0531080375895118730468486186978172


def _integrand(tag: str):
    if tag == "psi":
        return integrand_psi, PSI_EXACT
    if tag == "bessel":
        return lambda x: float(mpmath.besselj(0, x)) * (1.0 + math.log(x)), BESSEL_LOG_EXACT
    raise ValueError(f"unknown integrand {tag!r}")


@dataclass
class RuleFile:
    """On-disk form of a rule: spec, nodes, weights, and metadata."""

    beta: float
    exponents: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    meta: dict = field(default_factory=dict)


def rule_to_file(rule: QuadratureRule) -> RuleFile:
    return RuleFile(
        beta=rule.spec.beta,
        exponents=np.asarray(rule.spec.exponents),
        nodes=np.asarray(rule.nodes),
        weights=np.asarray(rule.weights),
        meta={
            "n": int(rule.nodes.size),
            "residual": float(rule.diagnostics.residual),
            "version": __version__,
        },
    )


def _sig17(value: float) -> str:
    return f"{value:.16e}"


def _table_number(value: float) -> str:
    # 17 significant digits as mantissa(exponent), e.g. 2.3157766972828912(-6)
    mantissa, exponent = f"{value:.16e}".split("e")
    return f"{mantissa}({int(exponent):+d})"


def _parse_table_number(text: str) -> float:
    mantissa, exponent = text.rstrip(")").split("(")
    return float(f"{mantissa}e{exponent}")


def serialize(rule_file: RuleFile, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "beta": rule_file.beta,
            "lambda": list(map(float, rule_file.exponents)),
            "nodes": list(map(float, rule_file.nodes)),
            "weights": list(map(float, rule_file.weights)),
            "meta": rule_file.meta,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = [f"# beta = {_sig17(rule_file.beta)}"]
        lines += [f"# lambda = {','.join(_sig17(v) for v in rule_file.exponents)}"]
        for key in sorted(rule_file.meta):
            lines.append(f"# {key} = {rule_file.meta[key]}")
        lines.append("k,node,weight")
        for k, (x, w) in enumerate(zip(rule_file.nodes, rule_file.weights)):
            lines.append(f"{k},{_sig17(x)},{_sig17(w)}")
        return "\n".join(lines) + "\n"
    if fmt == "text":
        lines = [f"beta    = {_sig17(rule_file.beta)}"]
        for key in sorted(rule_file.meta):
            lines.append(f"{key:7s} = {rule_file.meta[key]}")
        lines.append("lambda  = " + " ".join(_sig17(v) for v in rule_file.exponents))
        lines.append(f"{'k':>3s}  {'node':>24s}  {'weight':>24s}")
        for k, (x, w) in enumerate(zip(rule_file.nodes, rule_file.weights)):
            lines.append(f"{k:3d}  {_table_number(x):>24s}  {_table_number(w):>24s}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def parse(text: str) -> RuleFile:
    """Parse any of the three serialization formats back into a RuleFile.

    Raises ``ValueError`` on a malformed file and
    ``InadmissibleSequenceError`` when its exponents and weight give a
    divergent moment.
    """
    stripped = text.lstrip()
    if not stripped:
        raise ValueError("empty rule file")
    if stripped.startswith("{"):
        payload = json.loads(text)
        if not isinstance(payload.get("meta", {}), dict):
            raise ValueError("'meta' must be a JSON object")
        rf = RuleFile(
            beta=float(_json_numbers(payload, "beta", 0)),
            exponents=_json_numbers(payload, "lambda", 1),
            nodes=_json_numbers(payload, "nodes", 1),
            weights=_json_numbers(payload, "weights", 1),
            meta=dict(payload.get("meta", {})),
        )
    elif stripped.startswith("#") or stripped.startswith("k,"):
        rf = _parse_table(text, "CSV")
    else:
        rf = _parse_table(text, "text")
    if rf.nodes.size != rf.weights.size or 2 * rf.nodes.size != rf.exponents.size:
        raise ValueError("inconsistent lengths: need |nodes| = |weights| = |lambda|/2")
    ensure_admissible(rf.exponents, rf.beta)
    return rf


def _json_numbers(payload: dict, key: str, ndim: int) -> np.ndarray:
    """``payload[key]``, a JSON number (``ndim`` 0) or flat list of numbers (1), as floats."""
    items = payload[key] if ndim else [payload[key]]
    if not isinstance(items, list) or not all(type(v) in (int, float) for v in items):
        raise ValueError(f"{key!r} must be {'a list of numbers' if ndim else 'a number'}")
    return np.asarray(payload[key], dtype=float)


def _parse_table(text: str, fmt: str) -> RuleFile:
    """Header lines, a ``k node weight`` line, then one row per node.

    CSV headers are ``# key = value`` comments with comma-separated lambda
    and rows; text headers are ``key = value`` lines before the rows, with
    space-separated lambda and rows in the mantissa(exponent) convention.
    """
    csv = fmt == "CSV"
    sep, number = (",", float) if csv else (None, _parse_table_number)
    header = {}
    nodes, weights = [], []
    in_rows = False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#") if csv else (not in_rows and "=" in line):
            key, _, value = (line[1:] if csv else line).partition("=")
            header[key.strip()] = value.strip()
        elif line.split(sep) == ["k", "node", "weight"]:
            in_rows = True
        elif in_rows:
            _, x, w = line.split(sep)
            nodes.append(number(x))
            weights.append(number(w))
        else:
            raise ValueError(f"unexpected {fmt} line: {line!r}")
    if "beta" not in header or "lambda" not in header:
        raise ValueError(f"{fmt} rule file lacks beta/lambda header lines")
    beta = float(header.pop("beta"))
    exponents = np.array([float(v) for v in header.pop("lambda").split(sep)], dtype=float)
    meta = {key: _coerce(value) for key, value in header.items()}
    return RuleFile(beta, exponents, np.asarray(nodes), np.asarray(weights), meta)


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def validation_rows(rule_file: RuleFile):
    """Relative error of the rule on every power/log basis function.

    Repeated exponents contribute log powers, and every integral has the
    closed form int_0^1 x**(lam+beta) log(x)**j dx = (-1)**j j!/(1+lam+beta)**(j+1),
    so nothing here depends on the rule construction machinery.
    """
    beta = rule_file.beta
    nodes = rule_file.nodes
    weights = rule_file.weights
    distinct, counts = np.unique(rule_file.exponents, return_counts=True)
    rows = []
    # a node <= 0 makes its rows NaN (or infinite), which fails any threshold
    with np.errstate(divide="ignore", invalid="ignore"):
        log_nodes = np.log(nodes)
        for lam, count in zip(distinct, counts):
            for j in range(int(count)):
                exact = (-1.0) ** j * math.factorial(j) / (1.0 + lam + beta) ** (j + 1)
                approx = float(np.sum(weights * nodes**lam * log_nodes**j))
                label = f"x^{lam:g}" + (f" log^{j}" if j > 1 else " log" if j == 1 else "")
                rows.append((label, abs((exact - approx) / exact)))
    return rows


def _spec_from_args(args) -> RuleSpec:
    if getattr(args, "lambda_file", None):
        with open(args.lambda_file) as fh:
            exponents = np.array([float(line) for line in fh if line.strip()], dtype=float)
        if args.n is not None and 2 * args.n != exponents.size:
            raise ValueError(f"--n {args.n} conflicts with {exponents.size} exponents in file")
    elif getattr(args, "family", None):
        if args.n is None:
            raise ValueError("--n is required with --family")
        exponents = sequence_family(args.family, args.n)
    else:
        raise ValueError("provide --family or --lambda-file")
    return RuleSpec(exponents=exponents, beta=args.beta)


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_rule(args) -> int:
    try:
        spec = _spec_from_args(args)
    except (OSError, ValueError, MuntzQuadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        rule = compute_rule(spec)
        if args.unit_weight:
            rule = transform_to_unit_weight(rule)
    except MuntzQuadError as exc:
        print(f"error: rule construction failed: {exc}", file=sys.stderr)
        return 1
    _emit(serialize(rule_to_file(rule), args.format), args.out)
    return 0


def cmd_validate(args) -> int:
    if args.rule_file:
        try:
            with open(args.rule_file) as fh:
                rule_file = parse(fh.read())
        except (OSError, ValueError, KeyError, OverflowError, MuntzQuadError) as exc:
            print(f"error: cannot parse rule file: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            spec = _spec_from_args(args)
        except (OSError, ValueError, MuntzQuadError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            rule_file = rule_to_file(compute_rule(spec))
        except MuntzQuadError as exc:
            print(f"error: rule construction failed: {exc}", file=sys.stderr)
            return 1
    rows = validation_rows(rule_file)
    lines = [f"{'basis function':>18s}  relative error"]
    lines += [f"{label:>18s}  {err:.16e}" for label, err in rows]
    # np.max propagates NaN (a node outside (0, 1)); Python's max skips it
    worst = float(np.max([err for _, err in rows]))
    lines.append(f"worst: {worst:.16e}  threshold: {args.threshold:g}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if worst <= args.threshold else 1


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("range must be A:B:STEP")
    start, stop, step = (int(p) for p in parts)
    if step < 1 or stop < start or start < 1:
        raise ValueError("need 1 <= A <= B and STEP >= 1")
    return list(range(start, stop + 1, step))


def cmd_convergence(args) -> int:
    try:
        sizes = _parse_range(args.n_range)
        f, exact = _integrand(args.integrand)
        specs = [RuleSpec(sequence_family(args.family, n), args.beta) for n in sizes]
    except ValueError as exc:  # inadmissible specs included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    for n, spec in zip(sizes, specs):
        try:
            rule = compute_rule(spec)
        except MuntzQuadError as exc:
            print(f"error: construction failed at n = {n}: {exc}", file=sys.stderr)
            return 1
        rows.append((n, abs(apply_rule(rule, f) - exact)))
    if args.format == "csv":
        text = "n,error\n" + "\n".join(f"{n},{_sig17(err)}" for n, err in rows) + "\n"
    else:
        text = f"{'n':>4s}  absolute error\n" + "\n".join(f"{n:4d}  {err:.16e}" for n, err in rows) + "\n"
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muntzquad",
        description="Generalized Gaussian quadrature for power-exponent function systems",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_arguments(p):
        p.add_argument("--family", choices=FAMILIES, help="built-in exponent family")
        p.add_argument("--lambda-file", help="file with one exponent per line (repeats allowed)")
        p.add_argument("--n", type=int, help="number of quadrature nodes")
        p.add_argument("--beta", type=float, default=0.0, help="weight exponent (default 0)")

    p_rule = sub.add_parser("rule", help="compute a rule and write it out")
    add_spec_arguments(p_rule)
    p_rule.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_rule.add_argument("--out", help="output path (default stdout)")
    p_rule.add_argument(
        "--unit-weight",
        action="store_true",
        help="map the rule to unit weight over the scaled exponents before output",
    )
    p_rule.set_defaults(func=cmd_rule)

    p_val = sub.add_parser("validate", help="report basis exactness of a rule")
    p_val.add_argument("rule_file", nargs="?", help="rule file to check (any format)")
    add_spec_arguments(p_val)
    p_val.add_argument("--threshold", type=float, default=1e-12)
    p_val.add_argument("--out", help="output path (default stdout)")
    p_val.set_defaults(func=cmd_validate)

    p_conv = sub.add_parser("convergence", help="error versus rule size study")
    p_conv.add_argument("--family", choices=FAMILIES, required=True)
    p_conv.add_argument("--beta", type=float, default=0.0)
    p_conv.add_argument("--integrand", choices=("psi", "bessel"), default="psi")
    p_conv.add_argument("--n-range", required=True, help="node counts A:B:STEP")
    p_conv.add_argument("--format", choices=("text", "csv"), default="text")
    p_conv.add_argument("--out", help="output path (default stdout)")
    p_conv.set_defaults(func=cmd_convergence)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
