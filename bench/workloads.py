"""Workload definitions: the rule specs each benchmark run builds.

A spec is a plain dict ``{"label", "exponents", "beta"}`` of Python floats,
so it crosses the process boundary as JSON without losing a bit, and the
package only ever sees the generated ``(exponents, beta)``.
"""

from __future__ import annotations

import numpy as np

# Published rules with an external reference table (tests/table_data.py).
REFERENCE = (("example1", 20, -0.25), ("example2", 20, -1.0 / 3.0))

# Exponents repeated three times: the arbitrary-precision polish is
# unavailable, so the double-double contour path and theta search carry it.
TRIPLE = (("case3", 10, 0.0), ("case3", 20, 0.0), ("case3", 30, 0.0))

SWEEP_SIZE = 24
SWEEP_KINDS = ("edge", "repeat", "reflected_pair", "near_pair")
# The sweep's specs are drawn once, from this seed; a run's --seed only
# orders them.  Every run then measures the same work, which is what lets
# runs on different seeds be compared within the metrics' bounds.
SWEEP_POOL_SEED = 2026

WHY = {
    "reference": "example1 n=20 beta=-1/4 and example2 n=20 beta=-1/3: the published rules, "
    "checked against their tables; the mpmath polish dominates",
    "triple": "case3 n=10,20,30 beta=0: multiplicity-3 exponents bypass the mpmath polish, "
    "so the double-double contour path and Nelder-Mead theta search carry the load",
    "sweep": "24 random specs (pool seed 2026), N=2..12, over the whole admissible domain: "
    "short homotopy walks where step control, call overhead and failure paths dominate",
}


def _family(name: str, n_nodes: int) -> np.ndarray:
    """Same sequences as ``muntzquad.cli.sequence_family``, kept here so
    the workload does not depend on the package under test."""
    k = np.arange(n_nodes, dtype=float)
    if name == "case3":
        return np.arange(2 * n_nodes, dtype=float) // 3
    out = np.empty(2 * n_nodes)
    if name == "example1":
        out[0::2] = k + 2.0 / 3.0
        out[1::2] = k - 2.0 / 3.0
    elif name == "example2":
        out[0::2] = k - 0.5
        out[1::2] = k - 0.5
    else:
        raise ValueError(f"unknown family {name!r}")
    return out


def _spec(label: str, exponents, beta: float) -> dict:
    return {"label": label, "exponents": [float(v) for v in exponents], "beta": float(beta)}


def _ladder(rng, start: float, count: int) -> np.ndarray:
    """``count`` distinct exponents from ``start`` upward, gaps in [0.1, 1.2)."""
    gaps = rng.uniform(0.1, 1.2, size=count - 1)
    return start + np.concatenate([[0.0], np.cumsum(gaps)])


def _sweep_spec(rng, kind: str, n_nodes: int):
    """One admissible spec of the given kind: returns (exponents, beta).

    Every kind keeps ``min(lam) + beta > -1``; the edge gap is drawn, so
    specs land anywhere from 0.02 to 1 above the integrability limit.
    """
    size = 2 * n_nodes
    beta = float(rng.uniform(-0.9, 3.0))
    edge = -1.0 - beta
    if kind == "edge":
        # lowest exponent right above the integrability edge, large beta
        beta = float(rng.uniform(0.5, 3.0))
        edge = -1.0 - beta
        lam = _ladder(rng, edge + rng.uniform(0.02, 0.3), size)
    elif kind == "repeat":
        # distinct values repeated up to three times
        counts = []
        while sum(counts) < size:
            counts.append(int(rng.integers(1, 4)))
        counts[-1] -= sum(counts) - size
        values = _ladder(rng, edge + rng.uniform(0.05, 1.0), len(counts))
        lam = np.repeat(values, counts)
    elif kind == "reflected_pair":
        # two entries summing to -1 - beta (a numerator factor of the
        # kernel cancels a pole); both stay above the edge
        beta = float(rng.uniform(-0.5, 3.0))
        edge = -1.0 - beta
        a = float(rng.uniform(edge + 0.05, -0.05))
        rest = _ladder(rng, edge + rng.uniform(0.05, 1.0), size - 2)
        lam = np.concatenate([[a, edge - a], rest])
    elif kind == "near_pair":
        # one pair of nearly coincident exponents
        lam = _ladder(rng, edge + rng.uniform(0.05, 1.0), size - 1)
        pick = float(lam[int(rng.integers(lam.size))])
        lam = np.concatenate([lam, [pick + 10.0 ** rng.uniform(-13.0, -4.0)]])
    else:
        raise ValueError(f"unknown sweep kind {kind!r}")
    lam = np.array(lam, dtype=float)
    rng.shuffle(lam)
    return lam, beta


def sweep_specs(seed: int) -> list[dict]:
    """Seeded random specs over the admissible domain.

    Kinds cycle through ``SWEEP_KINDS`` and sizes step through N = 2..12, so
    every seed exercises the same mix of cases and sizes; the seed draws the
    exponent values and beta within each case.
    """
    rng = np.random.default_rng(seed)
    specs = []
    for index in range(SWEEP_SIZE):
        kind = SWEEP_KINDS[index % len(SWEEP_KINDS)]
        n_nodes = 2 + (index * 5) % 11
        lam, beta = _sweep_spec(rng, kind, n_nodes)
        specs.append(_spec(f"sweep{index:02d}-{kind}-n{n_nodes}", lam, beta))
    return specs


def specs_for(workload: str, seed: int) -> list[dict]:
    """The specs one run builds, each once per pass.

    ``reference`` and ``triple`` build their fixed specs in a fixed order:
    specs built earlier in a process warm caches that later ones share (case3
    n=20 runs about 7% faster after n=30), so an order drawn per seed would
    add that to the run-to-run spread.  ``sweep`` builds its pool in an order
    drawn from ``seed``; over 24 specs the effect averages out.
    """
    if workload == "reference":
        return [_spec(f"{f}-n{n}", _family(f, n), b) for f, n, b in REFERENCE]
    if workload == "triple":
        return [_spec(f"{f}-n{n}", _family(f, n), b) for f, n, b in TRIPLE]
    if workload == "sweep":
        specs = sweep_specs(SWEEP_POOL_SEED)
        return [specs[i] for i in np.random.default_rng(seed).permutation(len(specs))]
    raise ValueError(f"unknown workload {workload!r}")
