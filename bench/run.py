"""muntzquad benchmark: build one workload's rules, check them, print metrics.

    python3 bench/run.py --workload reference|triple|sweep --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory.  The load is one closed-loop client on one
thread: rules are built back to back, one ``compute_rule`` call each.

Each pass runs in a fresh process and builds every spec once, so the
package's process caches never serve a repeat.  With ``--trace 0`` the run
starts passes until the next one would end after ``--seconds`` (at least
one pass), times set-up in ``SETUP_SAMPLES`` processes, and prints the
end-to-end metrics; per-spec times are medians over passes.  With
``--trace 1`` it makes one pass with wrappers around each layer's calls and
prints the per-layer metrics; the spans go to ``.bench_out/``.

On a shared VM the host's speed drifts between about 1x and 3x of its best
within seconds, and runs short enough to repeat many times do not average
that out.  All times in metrics (``setup_s``, ``wall_s``, ``rule_s_p50`` and
the per-layer times) are therefore measured at reference speed by the
worker's ``SpeedProbe``; the raw seconds are in the report line.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a JSON report with every
spec, its outcome and errors, the failure rate and worst errors with their
units, raw times, and the environment.
"""

import os

# pin BLAS/OpenMP before numpy is imported here or in any pass
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TABLES = ROOT / "tests" / "table_data.py"
OUT = ROOT / ".bench_out"

WORKLOADS = ("reference", "triple", "sweep")
SETUP_SAMPLES = 5  # set-up is timed in every pass plus extra set-up-only passes
DEADLINE_S = 170.0  # whole run, including set-up passes
# errors are floored here before taking -log10, so digits stay finite
ERROR_FLOOR = 1e-17

PER_LAYER_TIMES = {  # metric -> (span name, "total_s" | "self_s")
    "refine.exact_residual.total_s": ("refine.exact_residual", "total_s"),
    "solver.polish.total_s": ("solver.polish", "total_s"),
    "solver.polish.self_s": ("solver.polish", "self_s"),
    "muntz.theta_search.total_s": ("muntz.theta_search", "total_s"),
    # the double-double sweep's own time is in the report only: it reads exactly 0
    # where no exponent repeats, and the whole evaluation's time includes it
    "muntz.basis_batch.total_s": ("muntz.basis_batch", "total_s"),
    "muntz.basis_batch.self_s": ("muntz.basis_batch", "self_s"),
    "muntz.segment_levels.total_s": ("muntz.segment_levels", "total_s"),
    "muntz.pole_expansion_table.total_s": ("muntz.pole_expansion_table", "total_s"),
    "solver.assemble.self_s": ("solver.assemble", "self_s"),
    "numerics.solve_dense.total_s": ("numerics.solve_dense", "total_s"),
    "muntz.moments.total_s": ("muntz.moments", "total_s"),
    "classical.gauss_jacobi.total_s": ("classical.gauss_jacobi", "total_s"),
    "cli.validation_rows.total_s": ("cli.validation_rows", "total_s"),
}
PER_LAYER_CALLS = {  # metric -> span name
    "refine.exact_residual.calls": "refine.exact_residual",
    "muntz.theta_search.calls": "muntz.theta_search",
    "muntz.group_sweep_dd.calls": "muntz.group_sweep_dd",
    "muntz.basis_batch.calls": "muntz.basis_batch",
    "muntz.expansion_values.calls": "muntz.expansion_values",
    "solver.newton_solve.calls": "solver.newton_solve",
    "solver.assemble.calls": "solver.assemble",
}
PER_LAYER_COUNTS = (  # read from return values and exceptions by the wrappers
    "refine.exact_residual.unavailable",
    "muntz.theta_search.unconverged",
    "numerics.nelder_mead_min.evaluations",
    "muntz.basis_batch.points",
    "muntz.basis_batch.compensated_calls",
    "muntz.expansion_values.accepted",
    "solver.newton_solve.diverged",
    "solver.continuation_steps",
    "solver.newton_iterations",
    "numerics.solve_dense.singular",
)
OUTCOMES = ("ok", "inexact", "typed_error", "bare_exception")


class BenchError(Exception):
    """The benchmark cannot run here (no package source, a pass died)."""


def _load_tables() -> dict:
    if not TABLES.is_file():
        raise BenchError(f"reference tables not found at {TABLES}")
    spec = importlib.util.spec_from_file_location("table_data", TABLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {"example1-n20": module.EXAMPLE1_RULE_20, "example2-n20": module.EXAMPLE2_RULE_20}


def _run_pass(specs, deadline, trace=False, spans_path=None) -> dict:
    request = {"src": str(SRC), "specs": specs, "trace": trace,
               "spans_path": str(spans_path) if spans_path else None}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline passed before a pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(request), capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded the run deadline of {DEADLINE_S:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def _digits(error: float) -> float:
    if not math.isfinite(error):
        return 0.0
    return -math.log10(max(error, ERROR_FLOOR))


def _environment() -> dict:
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def _write_replays(workload: str, specs, records) -> list:
    """Exponent files for every spec that did not end ok, with the CLI call
    that rebuilds it."""
    replays = []
    for spec, record in zip(specs, records):
        if record["outcome"] == "ok":
            continue
        folder = OUT / f"replay-{workload}"
        folder.mkdir(parents=True, exist_ok=True)
        path = folder / f"{spec['label']}.txt"
        path.write_text("".join(f"{value!r}\n" for value in spec["exponents"]))
        replays.append(
            f"PYTHONPATH=src python3 -m muntzquad rule --lambda-file {path.relative_to(ROOT)} "
            f"--beta={spec['beta']!r}"
        )
    return replays


def measure(workload: str, seed: int, seconds: int, trace: bool):
    """Returns (report, result line) for one run."""
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "muntzquad" / "__init__.py").is_file():
        raise BenchError(f"package source not found at {SRC}")
    specs = workloads.specs_for(workload, seed)
    if workload == "reference":
        tables = _load_tables()
        for spec in specs:
            spec["table"] = tables[spec["label"]]

    env = _environment()
    if trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-seed{seed}.json"
        passes = [_run_pass(specs, deadline, trace=True, spans_path=spans_path)]
    else:
        started = time.monotonic()
        passes = [_run_pass(specs, deadline)]
        # one more pass while, at the mean pass time so far, it ends within --seconds
        while (time.monotonic() - started) * (len(passes) + 1) / len(passes) <= seconds:
            passes.append(_run_pass(specs, deadline))
        setup_only = [_run_pass([], deadline) for _ in range(max(0, SETUP_SAMPLES - len(passes)))]
    env["loadavg_end"] = os.getloadavg()
    env["versions"] = passes[0]["versions"]

    records = [p["results"] for p in passes]
    first = records[0]
    outcomes = Counter(r["outcome"] for run in records for r in run)
    by_class = Counter(f"{r['outcome']}:{r.get('error', '')}".rstrip(":") for run in records for r in run)
    attempted = sum(len(run) for run in records)
    failed = attempted - outcomes["ok"]
    built = [r for run in records for r in run if "basis_err" in r]
    worst = {key: max((r[key] for r in built if key in r), default=None)
             for key in ("basis_err", "node_err", "weight_err")}
    # failure and accuracy as measured; the result line carries them as ok_rate and basis_digits
    checks = {"fail_rate": {"value": failed / attempted, "unit": "ratio"}}
    checks.update({key: {"value": worst[key], "unit": unit}
                   for key, unit in (("basis_err", "rel"), ("node_err", "abs"), ("weight_err", "rel"))
                   if worst[key] is not None})
    raw_seconds = [statistics.median(run[i]["seconds"] for run in records) for i in range(len(specs))]
    spec_seconds = [statistics.median(run[i]["ref_seconds"] for run in records) for i in range(len(specs))]
    # every built rule must pass its check; a failure to build is counted, not incorrect
    correct = outcomes["inexact"] == 0

    report = {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "environment": env,
        "outcomes": dict(by_class),
        "checks": checks,
        "rule_s_samples": len(spec_seconds),
        "wall_s": sum(spec_seconds),
        "raw_wall_s": sum(raw_seconds),
        "raw_rule_s_p50": statistics.median(raw_seconds),
        "specs": [
            {**{k: v for k, v in spec.items() if k != "table"},
             **{k: v for k, v in rec.items() if k not in ("label", "seconds", "ref_seconds", "probes")},
             "seconds": [run[i]["seconds"] for run in records],
             "ref_seconds": [run[i]["ref_seconds"] for run in records]}
            for i, (spec, rec) in enumerate(zip(specs, first))
        ],
        "replay": _write_replays(workload, specs, first),
    }

    if trace:
        layers, counts = passes[0]["layers"], Counter(passes[0]["counts"])
        if any(entry["self_s"] < -1e-6 for entry in layers.values()):
            raise BenchError(f"a layer's self time is negative, so its spans are corrupt: {layers}")
        wall = sum(spec_seconds)  # at reference speed, like the per-layer times
        values = {name: (layers.get(span, {}).get(field, 0.0), "s")
                  for name, (span, field) in PER_LAYER_TIMES.items()}
        values.update({name: (layers.get(span, {}).get("calls", 0), "count")
                       for name, span in PER_LAYER_CALLS.items()})
        values.update({name: (counts[name], "count") for name in PER_LAYER_COUNTS})
        expansion_calls = layers.get("muntz.expansion_values", {}).get("calls", 0)
        values["muntz.expansion_values.accept_ratio"] = (
            counts["muntz.expansion_values.accepted"] / expansion_calls if expansion_calls else 0.0, "ratio")
        level_points = counts["muntz.segment_levels.points"]
        values["muntz.segment_levels.mean_level"] = (
            counts["muntz.segment_levels.level_sum"] / level_points if level_points else 0.0, "level")
        values.update({f"outcome.{name}": (outcomes[name], "count") for name in OUTCOMES})
        in_rules = {name: entry for name, entry in layers.items() if name != "cli.validation_rows"}
        values["trace.wall_s"] = (wall, "s")
        values["trace.remainder_s"] = (layers.get("solver.compute_rule", {}).get("self_s", 0.0), "s")
        values["trace.accounted_share"] = (sum(e["self_s"] for e in in_rules.values()) / wall, "ratio")
        report["layers"] = dict(sorted(layers.items(), key=lambda item: -item[1]["self_s"]))
        report["missing_wrappers"] = passes[0]["missing"]
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        setup = [p["setup"]["ref_seconds"] for p in passes + setup_only]
        report["setup_samples"] = len(setup)
        report["raw_setup_s"] = statistics.median(p["setup"]["seconds"] for p in passes + setup_only)
        values = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (sum(spec_seconds), "s"),
            "rule_s_p50": (statistics.median(spec_seconds), "s"),
            "ok_rate": (outcomes["ok"] / attempted, "ratio"),
            "basis_digits": (_digits(worst["basis_err"]) if built else 0.0, "digits"),
            "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        }

    line = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    return report, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, line = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
