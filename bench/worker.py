"""One benchmark pass in a fresh process: set up, build every spec once, check.

Reads a request object as JSON on stdin and writes one result object as
JSON on stdout.  The request names the package source directory, the
specs, and whether to trace.  Set-up (package import plus warm-up rules on
two tiny specs) is timed first; an empty spec list times set-up only.
Every spec is built once, so no process cache serves a repeat.  Checks run
outside the timed region.

The host's speed drifts (on a 2-vCPU VM it moves between about 1x and 3x
of its best speed within seconds), so every timed region runs under a
``SpeedProbe``: a timer signal interrupts it every ``PROBE_PERIOD_S`` to
time a fixed piece of work, and each stretch of the region between two
probes is scaled by the probes' time around it.  A traced pass converts
its span times with the same clock, which stands still inside probes, so no
layer's time includes them.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# ROADMAP aim-3 bar for basis exactness, and the criterion 1-2 table tolerances
BASIS_TOL = 1e-12
NODE_TOL = 1e-12  # absolute
WEIGHT_TOL = 1e-11  # relative

# tiny distinct-exponent and multiplicity-3 specs, so both basis paths are warm
WARMUP = (([2.0 / 3.0, -2.0 / 3.0, 5.0 / 3.0, 1.0 / 3.0], -0.25), ([0.0, 0.0, 0.0, 1.0], 0.0))

PROBE_PERIOD_S = 0.05
# the probe's time at full speed on a 2-vCPU x86-64 VM (2.0 GHz Xeon, family
# 6 model 143): about the fastest of 3000 back-to-back runs
PROBE_REF_S = 1.0e-3
_PROBE_ARRAY = np.linspace(0.1, 1.0, 40)


def _probe_work() -> None:
    """Fixed interpreter and small-array numpy work, the rule build's mix."""
    total = 0
    for i in range(15_000):
        total += i & 7
    x = _PROBE_ARRAY
    for _ in range(150):
        x = np.exp(np.log(x) * 0.999) + _PROBE_ARRAY * 1e-9


def reference_clock(samples):
    """Maps ``perf_counter`` times (scalar or array) to seconds at reference
    speed, given the probes' ``(start, end)`` times in order.

    Between two probes the clock runs at ``PROBE_REF_S`` over the mean of
    their durations; inside a probe it stands still, so probes cost nothing.
    """
    times, ticks = [samples[0][1]], [0.0]
    for before, after in zip(samples, samples[1:]):
        rate = PROBE_REF_S / (0.5 * ((before[1] - before[0]) + (after[1] - after[0])))
        ticks += [ticks[-1] + (after[0] - before[1]) * rate] * 2
        times += [after[0], after[1]]
    return lambda t: np.interp(t, times, ticks)


class SpeedProbe:
    """Times regions in seconds at reference speed, ``PROBE_REF_S`` per probe."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # every probe of the pass, in order
        self._probing = False
        signal.signal(signal.SIGALRM, self._on_timer)

    def _on_timer(self, signum, frame) -> None:
        # a signal that lands inside a probe (the host stalled it for a whole
        # period) is dropped, so probes never nest and samples stay in order
        if not self._probing:
            self.sample()

    def sample(self) -> None:
        self._probing = True
        try:
            started = perf_counter()
            _probe_work()
            self.samples.append((started, perf_counter()))
        finally:
            self._probing = False

    @contextmanager
    def region(self):
        """Times the body; the yielded dict gets ``seconds`` (raw, probes
        excluded) and ``ref_seconds`` (at reference speed) when it ends."""
        timing: dict = {}
        first = len(self.samples)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        started = perf_counter()
        try:
            yield timing
        finally:
            stopped = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.sample()
            samples = self.samples[first:]
            clock = reference_clock(samples)
            timing.update(seconds=stopped - started - sum(end - start for start, end in samples[1:-1]),
                          ref_seconds=float(clock(stopped) - clock(started)), probes=len(samples))


def main() -> int:
    request = json.load(sys.stdin)
    src = Path(request["src"]).resolve()
    probe = SpeedProbe()

    with probe.region() as setup:
        sys.path.insert(0, str(src))
        import mpmath

        import muntzquad
        from muntzquad.cli import rule_to_file, validation_rows

        if Path(muntzquad.__file__).resolve().parent != src / "muntzquad":
            raise SystemExit(f"imported muntzquad from {muntzquad.__file__}, not from {src}")
        for lam, beta in WARMUP:
            muntzquad.compute_rule(muntzquad.RuleSpec(np.array(lam), beta))

    build, check, tracer = muntzquad.compute_rule, validation_rows, None
    if request.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        build = tracer.wrap(tracing.ROOT, build)
        check = tracer.wrap("cli.validation_rows", check)

    def build_one(rule_id: int, spec: dict) -> dict:
        rule_spec = muntzquad.RuleSpec(np.array(spec["exponents"], dtype=float), spec["beta"])
        record = {"label": spec["label"]}
        if tracer is not None:
            tracer.rule_id = rule_id
        with probe.region() as timing:
            try:
                rule, failure = build(rule_spec), None
            except Exception as exc:  # every failure is a finding, never a crash of the run
                rule, failure = None, exc
        record.update(timing)
        if failure is not None:
            record.update(
                outcome="typed_error" if isinstance(failure, muntzquad.MuntzQuadError) else "bare_exception",
                error=type(failure).__name__,
                message=str(failure),
            )
            return record
        if tracer is not None:
            tracer.counts["solver.continuation_steps"] += rule.diagnostics.continuation_steps
            tracer.counts["solver.newton_iterations"] += rule.diagnostics.newton_iterations

        rows = check(rule_to_file(rule))
        record["basis_err"] = float(np.max([err for _, err in rows]))
        exact = record["basis_err"] <= BASIS_TOL
        if "table" in spec:
            ref = np.array(spec["table"], dtype=float)
            record["node_err"] = float(np.abs(rule.nodes - ref[:, 0]).max())
            record["weight_err"] = float(np.abs((rule.weights - ref[:, 1]) / ref[:, 1]).max())
            exact = exact and record["node_err"] <= NODE_TOL and record["weight_err"] <= WEIGHT_TOL
        record["outcome"] = "ok" if exact else "inexact"
        return record

    results = [build_one(rule_id, spec) for rule_id, spec in enumerate(request["specs"])]
    out = {
        "setup": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "mpmath": mpmath.__version__, "muntzquad": muntzquad.__version__},
        "results": results,
    }
    if tracer is not None:
        out["layers"] = tracer.layers(reference_clock(probe.samples))
        out["counts"] = dict(tracer.counts)
        out["missing"] = tracer.missing
        if request.get("spans_path"):
            tracer.dump(request["spans_path"], probe.samples)
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
