"""Per-layer spans and counts, recorded from outside the package.

Each wrapper is installed where the caller looks the name up (a module
global of the calling module, or the ``refine`` module attribute), records
one span per call and reads its counts from the wrapped function's return
value or exception.  Return values and exceptions pass through unchanged.
Spans live in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

ROOT = "solver.compute_rule"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # [name index, start, end, parent span index or -1, rule id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.rule_id = -1
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        name_index = self._name_index[name]
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name_index, perf_counter(), 0.0, stack[-1] if stack else -1, self.rule_id])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(counts, exc)
                raise
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result

        return traced

    def patch(self, module, attribute: str, name: str, on_result=None, on_error=None) -> None:
        """Replace ``module.attribute`` by a traced wrapper, if it exists."""
        fn = getattr(module, attribute, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attribute}")
            return
        setattr(module, attribute, self.wrap(name, fn, on_result, on_error))

    def layers(self, clock) -> dict:
        """calls, total_s and self_s per span name.

        ``clock`` maps an array of ``perf_counter`` times to the seconds
        reported.  Self time is a span's duration minus its direct
        children's; calls run on one thread, so children never overlap.
        """
        starts = clock(np.array([span[1] for span in self.spans]))
        ends = clock(np.array([span[2] for span in self.spans]))
        durations = (ends - starts).tolist()
        child_time = [0.0] * len(self.spans)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                child_time[span[3]] += durations[index]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, span in enumerate(self.spans):
            entry = out[self.names[span[0]]]
            entry["calls"] += 1
            entry["total_s"] += durations[index]
            entry["self_s"] += durations[index] - child_time[index]
        return dict(out)

    def dump(self, path, probes) -> None:
        """Writes the spans in raw ``perf_counter`` seconds, with the speed
        probes' ``(start, end)`` times that convert them to reference speed."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent", "rule"],
                       "spans": self.spans, "probes": probes}, fh)


def _count_exception(key: str, exc_type):
    def on_error(counts, exc):
        if isinstance(exc, exc_type):
            counts[key] += 1
    return on_error


def _theta_result(counts, args, kwargs, result):
    if not result.converged:
        counts["muntz.theta_search.unconverged"] += 1


def _nelder_mead_result(counts, args, kwargs, result):
    counts["numerics.nelder_mead_min.evaluations"] += int(result.evaluations)


def _basis_batch_result(counts, args, kwargs, result):
    counts["muntz.basis_batch.points"] += int(np.atleast_1d(args[1]).size)
    if kwargs.get("compensated", args[3] if len(args) > 3 else False):
        counts["muntz.basis_batch.compensated_calls"] += 1


def _segment_levels_result(counts, args, kwargs, result):
    levels = np.asarray(result)
    counts["muntz.segment_levels.points"] += int(levels.size)
    counts["muntz.segment_levels.level_sum"] += int(levels.sum())


def _expansion_result(counts, args, kwargs, result):
    if result is not None:
        counts["muntz.expansion_values.accepted"] += 1


def _exact_residual_result(counts, args, kwargs, result):
    if result is None:
        counts["refine.exact_residual.unavailable"] += 1


def install(tracer: Tracer) -> None:
    """Wrap every traced call site of the package under test."""
    from muntzquad import errors, muntz, refine, solver

    tracer.patch(solver, "newton_solve", "solver.newton_solve",
                 on_error=_count_exception("solver.newton_solve.diverged", errors.NewtonDivergedError))
    tracer.patch(solver, "assemble", "solver.assemble")
    tracer.patch(solver, "_polish", "solver.polish")
    tracer.patch(solver, "_basis_batch", "muntz.basis_batch", on_result=_basis_batch_result)
    tracer.patch(solver, "moments", "muntz.moments")
    tracer.patch(solver, "scaled_derivatives", "muntz.scaled_derivatives")
    tracer.patch(solver, "solve_dense", "numerics.solve_dense",
                 on_error=_count_exception("numerics.solve_dense.singular", errors.SingularMatrixError))
    tracer.patch(solver, "gauss_jacobi", "classical.gauss_jacobi")
    tracer.patch(refine, "exact_residual", "refine.exact_residual", on_result=_exact_residual_result)
    tracer.patch(muntz, "_theta_search", "muntz.theta_search", on_result=_theta_result)
    tracer.patch(muntz, "nelder_mead_min", "numerics.nelder_mead_min", on_result=_nelder_mead_result)
    tracer.patch(muntz, "_segment_levels", "muntz.segment_levels", on_result=_segment_levels_result)
    tracer.patch(muntz, "_expansion_values", "muntz.expansion_values", on_result=_expansion_result)
    tracer.patch(muntz, "_pole_expansion_table", "muntz.pole_expansion_table")
    tracer.patch(muntz, "_group_sweep_dd", "muntz.group_sweep_dd")
