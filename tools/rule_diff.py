"""Compare the rules two source trees of muntzquad build on one traffic set.

    python tools/rule_diff.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a directory holding the ``muntzquad`` package (the
``src`` directory of a checkout).  Both trees build the same 414 specs,
each side in its own process with one BLAS thread:

- ``reference`` and ``triple``: the bench workloads' fixed specs (5);
- ``sweep``: ``bench/workloads.sweep_specs`` for seeds 1..8 and the pool
  seed 2026 (216);
- ``domain``: the 44 specs of ``tests/test_domain.py``;
- ``criterion7``: the 50 random specs of the acceptance suite's criterion 7
  and their permuted builds (100);
- ``scale``: ``example1``/``example2`` n=40, ``case1``/``case2`` n=30 and
  ``example1`` n=60, 80 and 100 (7);
- ``hard``: 42 specs at the edges of reach, for n = 2, 4 and 8:
  ``0..2n-1`` and its halves at beta = -1 + 10**-k for k = 3..6,
  ``0..2n-2`` plus 10**e for e = 3..7, and ``0..n/2-1`` four times at
  beta = -0.99 (42).

So 372 specs come from traffic and scale and 42 from the hard set.

The report lists outcome changes (with the ``validation_rows`` worst and the
floor ratio of a side that builds, and the error message of each side that
fails), the count of rules whose nodes and
weights are bit-identical, every moved rule with its worst relative node
and weight change, the worst ``validation_rows`` error and the largest
``RuleDiagnostics.floor_ratio`` per side (where the tree reports one), and per
group the ``assemble`` calls, the ``newton_solve`` calls and the polish's
``refine.exact_residual`` calls, the hyperbola sweeps
(``muntz._hyperbola_values`` calls) and the samples they sweep (basis rows x
points x contour samples, with the samples from the shape table the sweep
reads), and how the ``newton_solve`` calls ended.  Assembles, samples and
solves fall in three classes, by the Newton solve they run in: walk solves
below ``alpha = 1``, walk solves at ``alpha = 1`` (alpha is read from the
walk's last ``solver.continuation_exponents`` call), and the landings, the
solves that ``compute_rule`` makes with ``walk`` false.  The classes do not
depend on how a tree's evaluator is tiered, so a tree with one shape table
compares with one that has a table per tier.  A solve converged on the
residual, converged on a small correction (a walk solve that returns its
last iterate unassembled, so that it makes as many ``assemble`` calls as
iterations), converged at zero iterations, or diverged, by the reason its
``NewtonDivergedError`` gives ("no convergence" is the iteration cap).
Last it counts the classical arrays (nodes and weights) that are
bit-identical between the sides, and names each one that is not, with each side's worst distance in ulps from the
50-digit ``mp.gauss_quadrature`` rule of ``tests/test_classical.py``, so
that a moved array is judged by its accuracy: ``gauss_legendre`` at orders 8 and 24, fixed orders
that check the public classical rules, and each spec's walk start,
``classical._jacobi_start(n, beta + min(lam))``.  Both sides also evaluate
``refine.exact_residual`` at that walk start, which is bit-identical on both
sides, against the spec's exponents shifted as ``compute_rule`` shifts them,
and the report gives per group the residual rows that are bit-identical and
the spec and row with the largest relative difference, and lists each row
that reads exactly 0 with the change only, so that a change to
``refine`` is judged on its residuals, not only on whether a rule moved.  The specs come from this
checkout's ``bench/`` and ``tests/``, which are only read; a side whose spec
list differs from the other's stops the run.  Both sides import this
checkout's ``tests/test_acceptance.py`` and ``tests/test_domain.py`` with
their own ``src`` on the path, so those modules may import only names that
both trees export (``from muntzquad import eval_all`` rather than the module
that defines it).

The exit status is 1 when any spec changes outcome (the report is printed
all the same), when a side fails or the spec lists differ, and 0 otherwise,
so the tool can gate a change.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# classes of Newton solves: walk solves below alpha = 1, walk solves at alpha = 1, landings
SOLVES = ("walk", "walk at 1", "landing")
# per-spec call counts: assemble by enclosing solve class, Newton solves,
# polish residual, hyperbola sweeps
COUNTS = (*SOLVES, "solves", "exact_residual", "sweeps")
# per-spec samples swept (rows x points x samples), by enclosing solve class
SAMPLES = tuple(f"samples_{kind}" for kind in SOLVES)
KEYS = COUNTS + SAMPLES
# why a Newton solve diverged: a phrase of its error message
REASONS = ("correction grew", "stalled", "singular", "safeguard", "non-finite", "no convergence")
OUTCOMES = ("converged", "on correction", "zero-iteration", *REASONS)
SCALE = (("example1", 40, -0.25), ("example2", 40, -1.0 / 3.0), ("case1", 30, 0.0),
         ("case2", 30, 0.0), ("example1", 60, -0.25), ("example1", 80, -0.25),
         ("example1", 100, -0.25))
# the orders at which the public gauss_legendre rule is compared
LEGENDRE_ORDERS = (8, 24)


def hard_specs():
    """``(label, exponents, beta)`` of the 42-spec hard set."""
    specs = []
    for n in (2, 4, 8):
        ladder = np.arange(2.0 * n)
        for k in range(3, 7):
            specs += [(f"0..{2 * n - 1}-beta-1+1e-{k}", ladder, -1.0 + 10.0**-k),
                      (f"halves-0..{2 * n - 1}-beta-1+1e-{k}", ladder / 2.0, -1.0 + 10.0**-k)]
        specs += [(f"0..{2 * n - 2}+1e{e}", np.append(ladder[:-1], 10.0**e), 0.0) for e in range(3, 8)]
        specs.append((f"0..{n // 2 - 1}x4-beta-0.99", np.repeat(np.arange(n // 2, dtype=float), 4), -0.99))
    return specs


def traffic_specs():
    """``(group, label, exponents, beta)`` for every spec, with the package on the path."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]
    import workloads
    from test_acceptance import _random_spec
    from test_domain import SPECS as DOMAIN_SPECS
    from muntzquad.cli import sequence_family

    specs = []
    for workload in ("reference", "triple"):
        specs += [(workload, s["label"], s["exponents"], s["beta"]) for s in workloads.specs_for(workload, 1)]
    for seed in (*range(1, 9), workloads.SWEEP_POOL_SEED):
        specs += [("sweep", f"{seed}/{s['label']}", s["exponents"], s["beta"]) for s in workloads.sweep_specs(seed)]
    specs += [("domain", f"{kind}-{index}", lam, beta) for kind, index, lam, beta, _ in DOMAIN_SPECS]
    rng = np.random.default_rng(2026)  # the draws of criterion 7, in its order
    for index in range(50):
        spec = _random_spec(rng)
        permuted = np.array(spec.exponents)
        rng.shuffle(permuted)
        specs += [("criterion7", f"draw{index}", spec.exponents, spec.beta),
                  ("criterion7", f"draw{index}-permuted", permuted, spec.beta)]
    specs += [("scale", f"{family}-n{n}", sequence_family(family, n), beta) for family, n, beta in SCALE]
    specs += [("hard", label, lam, beta) for label, lam, beta in hard_specs()]
    return [(group, label, [float(v) for v in lam], float(beta)) for group, label, lam, beta in specs]


def classical_arrays(specs) -> dict:
    """Name -> ``[nodes, weights, order, beta]`` of the fixed-order rules and
    each spec's walk start."""
    from muntzquad import classical

    arrays = {}
    for order in LEGENDRE_ORDERS:
        built = classical.gauss_legendre(order)
        arrays[f"gauss_legendre({order})"] = [built.nodes.tolist(), built.weights.tolist(), order, 0.0]
    for group, label, lam, beta in specs:
        start = classical._jacobi_start(len(lam), beta + min(lam))
        arrays[f"{group}:{label} walk start"] = [*(a.tolist() for a in start), len(lam), beta + min(lam)]
    return arrays


def reference_ulps(name: str, field: int, sides: list, order: int, beta: float) -> list:
    """Each side's worst distance, in ulps, of classical array ``field`` (0
    nodes, 1 weights) from the 50-digit ``mp.gauss_quadrature`` rule that
    ``tests/test_classical.py::_reference_rule`` builds."""
    sys.path[:0] = [path for path in (str(ROOT / "src"), str(ROOT / "tests")) if path not in sys.path]
    from test_classical import _reference_rule

    kind = "legendre" if name.startswith("gauss_legendre") else "jacobi"
    reference = _reference_rule(kind, order, beta)[field]
    return [float(np.max(np.abs(np.array(side) - reference) / np.spacing(np.abs(reference)))) for side in sides]


def walk_start_residuals(specs) -> dict:
    """Name -> ``refine.exact_residual`` at each spec's walk start, on the
    exponents shifted to a smallest of 0 as ``compute_rule`` shifts them."""
    from muntzquad import classical, refine

    residuals = {}
    for group, label, lam, beta in specs:
        lam = np.sort(lam)
        shifted, walk_beta = lam - lam[0], beta + lam[0]
        nodes, weights = classical._jacobi_start(lam.size // 2, walk_beta)
        expansion = refine.pole_expansion(shifted, walk_beta)
        residuals[f"{group}:{label}"] = refine.exact_residual(nodes, weights, expansion).tolist()
    return residuals


def build_side() -> dict:
    """Builds every spec with the package on ``sys.path``: one record per spec,
    the classical arrays and the walk-start residuals."""
    from muntzquad import MuntzQuadError, NewtonDivergedError, RuleSpec, compute_rule, muntz, refine, solver
    from muntzquad.cli import rule_to_file, validation_rows

    specs = traffic_specs()
    classical = classical_arrays(specs)
    residuals = walk_start_residuals(specs)

    counts = dict.fromkeys(KEYS, 0)
    newton = {}  # solve class -> outcome -> solves
    blend = [0.0]  # alpha of the walk's last continuation_exponents call
    solving = [None]  # class of the Newton solve running; every assemble runs in one
    assemble, exact_residual, newton_solve = solver.assemble, refine.exact_residual, solver.newton_solve
    continuation_exponents = solver.continuation_exponents
    hyperbola_values = muntz._hyperbola_values

    def counting_assemble(*args, **kwargs):
        counts[solving[0]] += 1
        return assemble(*args, **kwargs)

    def counting_residual(*args, **kwargs):
        counts["exact_residual"] += 1
        return exact_residual(*args, **kwargs)

    def counting_sweep(lam, omega, *shapes):
        """A sweep of either tree: one that passes its tier's table, or one
        that reads the module's one table."""
        counts["sweeps"] += 1
        samples = next(shape[3] for shape in (shapes[0] if shapes else muntz._SHAPES) if lam.size <= shape[0])
        counts[f"samples_{solving[0]}"] += lam.size * omega.size * samples
        return hyperbola_values(lam, omega, *shapes)

    def counting_solve(*args, **kwargs):
        counts["solves"] += 1
        if not (args[5] if len(args) > 5 else kwargs.get("walk", False)):
            kind = "landing"
        else:
            kind = "walk at 1" if blend[0] == 1.0 else "walk"
        outcomes = newton[kind]
        assembled = counts[kind]
        solving[0] = kind
        try:
            result = newton_solve(*args, **kwargs)
        except NewtonDivergedError as exc:
            outcomes[next(reason for reason in REASONS if reason in str(exc))] += 1
            raise
        finally:
            solving[0] = None
        assembled = counts[kind] - assembled
        if not result.iterations:
            outcomes["zero-iteration"] += 1
        else:
            outcomes["on correction" if assembled == result.iterations else "converged"] += 1
        return result

    def blending(exponents, alpha):
        blend[0] = alpha
        return continuation_exponents(exponents, alpha)

    solver.assemble, refine.exact_residual = counting_assemble, counting_residual
    solver.newton_solve, solver.continuation_exponents = counting_solve, blending
    muntz._hyperbola_values = counting_sweep
    records = []
    for group, label, lam, beta in specs:
        counts.update(dict.fromkeys(KEYS, 0))
        newton.update({kind: dict.fromkeys(OUTCOMES, 0) for kind in SOLVES})
        record = {"group": group, "label": label, "exponents": lam, "beta": beta}
        try:
            rule = compute_rule(RuleSpec(np.array(lam), beta))
        except MuntzQuadError as exc:
            record.update(outcome=type(exc).__name__, error=str(exc))
        else:
            record.update(outcome="ok", nodes=rule.nodes.tolist(), weights=rule.weights.tolist(),
                          diagnostics=vars(rule.diagnostics),
                          validation=max(err for _, err in validation_rows(rule_to_file(rule))))
        record.update(counts, newton={kind: dict(newton[kind]) for kind in SOLVES})
        records.append(record)
    return {"specs": records, "classical": classical, "residuals": residuals}


def run_side(src: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, __file__, "--side"], env=env, stdout=subprocess.PIPE, text=True)


def relative_change(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(b - a) / np.abs(a)))


def largest_floor_ratio(records: list) -> str:
    ratios = [r["diagnostics"]["floor_ratio"] for r in records
              if r["outcome"] == "ok" and "floor_ratio" in r["diagnostics"]]
    return f"{max(ratios):.3g}" if ratios else "not reported"


def residual_agreement(parent_side: dict, change_side: dict) -> None:
    """Per group, the walk-start residual rows that are bit-identical between
    the sides, and the spec and row with the largest relative difference."""
    rows = defaultdict(lambda: [0, 0, 0.0, "none"])  # group -> identical, total, largest difference, where
    zeroed = []  # rows that read exactly 0 only with the change
    for name, before in parent_side["residuals"].items():
        tally = rows[name.split(":")[0]]
        a, b = np.array(before), np.array(change_side["residuals"][name])
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        zeroed += [f"  now 0: {name} row {i} (parent {a[i]:.3g})" for i in np.flatnonzero((b == 0.0) & ~same)]
        tally[0] += int(same.sum())
        tally[1] += a.size
        with np.errstate(divide="ignore", invalid="ignore"):
            relative = np.where(same, 0.0, np.abs(b - a) / np.maximum(np.abs(a), np.abs(b)))
        relative = np.nan_to_num(relative, nan=np.inf)
        if relative.max() > tally[2]:
            tally[2], tally[3] = float(relative.max()), f"{name} row {int(relative.argmax())}"
    print("walk-start exact residual rows bit-identical per group (largest relative difference, where):")
    for group, (same, total, largest, where) in rows.items():
        print(f"  {group}: {same} of {total} ({largest:.2e}, {where})")
    print(f"walk-start exact residual rows that read exactly 0 with the change only: {len(zeroed)}",
          *zeroed, sep="\n")


def report(parent_side: dict, change_side: dict) -> int:
    parent, change = parent_side["specs"], change_side["specs"]
    key = [(r["group"], r["label"], r["exponents"], r["beta"]) for r in parent]
    if key != [(r["group"], r["label"], r["exponents"], r["beta"]) for r in change]:
        print("the two sides built different spec lists")
        return 1
    outcomes, moved, identical = [], [], 0
    totals = defaultdict(lambda: {key: [0, 0] for key in KEYS})  # group -> key -> per side
    solves = {kind: {outcome: [0, 0] for outcome in OUTCOMES} for kind in SOLVES}  # class -> outcome -> per side
    worst = defaultdict(lambda: [0.0, 0.0])  # group -> worst validation_rows error per side
    for before, after in zip(parent, change):
        name = f"{before['group']}:{before['label']}"
        for side, record in enumerate((before, after)):
            for key in KEYS:
                totals[record["group"]][key][side] += record[key]
            for kind in SOLVES:
                for outcome in OUTCOMES:
                    solves[kind][outcome][side] += record["newton"][kind][outcome]
            if record["outcome"] == "ok":
                worst[record["group"]][side] = max(worst[record["group"]][side], record["validation"])
        if before["outcome"] != after["outcome"]:
            built_side = after if after["outcome"] == "ok" else before
            detail = (f" (validation_rows {built_side['validation']:.2e}, floor ratio "
                      f"{built_side['diagnostics'].get('floor_ratio', float('nan')):.3g})"
                      if built_side["outcome"] == "ok" else "")
            detail += "".join(f"; {side}: {record['error']}"
                              for side, record in (("parent", before), ("change", after)) if record["outcome"] != "ok")
            outcomes.append(f"  {name}: {before['outcome']} -> {after['outcome']}{detail}")
        elif before["outcome"] == "ok":
            if before["nodes"] == after["nodes"] and before["weights"] == after["weights"]:
                identical += 1
            else:
                changed = [field for field, value in before["diagnostics"].items()
                           if after["diagnostics"].get(field) != value]
                moved.append((relative_change(before["nodes"], after["nodes"]),
                              relative_change(before["weights"], after["weights"]), name, changed))
    built = sum(r["outcome"] == "ok" for r in change)
    print(f"{len(parent)} specs; {built} build with the change, {sum(r['outcome'] == 'ok' for r in parent)} at the parent")
    print(f"outcome changes: {len(outcomes)}", *outcomes, sep="\n")
    print(f"bit-identical rules: {identical} of {built}")
    print(f"moved rules: {len(moved)} (relative node / weight change; diagnostics that changed)")
    for node, weight, name, changed in sorted(moved, key=lambda m: -max(m[0], m[1])):
        print(f"  {name}: {node:.2e} / {weight:.2e}; {', '.join(changed) or 'none'}")
    print("worst validation_rows error per group (parent -> change): "
          + ", ".join(f"{group} {pair[0]:.2e} -> {pair[1]:.2e}" for group, pair in worst.items()))
    print("largest floor ratio: " + ", ".join(f"{side} {largest_floor_ratio(records)}"
                                              for side, records in (("parent", parent), ("change", change))))
    totals["all"] = {key: [sum(group[key][side] for group in totals.values()) for side in (0, 1)]
                     for key in KEYS}
    for title, keys in (("calls per group, assemble in walk / walk at 1 / landing solves, Newton solve / "
                         "exact residual / hyperbola sweep", COUNTS),
                        ("samples swept per group in walk / walk at 1 / landing solves", SAMPLES)):
        print(f"{title} (parent -> change):")
        for group, counts in totals.items():
            print(f"  {group}: " + " -> ".join(" / ".join(str(counts[key][side]) for key in keys)
                                               for side in (0, 1)))
    print(f"Newton solves per class, {' / '.join(OUTCOMES)} (parent -> change; "
          "walk at 1: the walk's solves at alpha = 1):")
    for kind, ends in solves.items():
        print(f"  {kind}: " + " -> ".join(" / ".join(str(ends[o][side]) for o in OUTCOMES) for side in (0, 1)))
    differing = []
    for name, (*before, order, beta) in parent_side["classical"].items():
        after = change_side["classical"][name][:2]
        for index, field in enumerate(("nodes", "weights")):
            if before[index] != after[index]:
                ulps = reference_ulps(name, index, [before[index], after[index]], order, beta)
                differing.append(f"  differs: {name} {field}, worst ulps from the 50-digit rule "
                                 f"{ulps[0]:g} -> {ulps[1]:g}")
    total = 2 * len(parent_side["classical"])
    print(f"bit-identical classical arrays: {total - len(differing)} of {total}", *differing, sep="\n")
    residual_agreement(parent_side, change_side)
    return 1 if outcomes else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", nargs="?")
    parser.add_argument("change_src", nargs="?")
    parser.add_argument("--side", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side:
        json.dump(build_side(), sys.stdout)
        return 0
    if not (args.parent_src and args.change_src):
        parser.error("give PARENT_SRC and CHANGE_SRC")
    sides = [run_side(src) for src in (args.parent_src, args.change_src)]
    outputs = [side.communicate()[0] for side in sides]
    if any(side.returncode for side in sides):
        print("a side failed to build its specs", file=sys.stderr)
        return 1
    return report(*(json.loads(out) for out in outputs))


if __name__ == "__main__":
    sys.exit(main())
