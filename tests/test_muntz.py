import math

import mpmath as mp
import numpy as np
import pytest

from muntzquad import muntz
from muntzquad.classical import _jacobi_start, gauss_laguerre
from muntzquad.cli import sequence_family
from muntzquad.errors import DomainError, InadmissibleSequenceError, LengthMismatchError
from muntzquad.muntz import (
    eval_all,
    moment_recurrence,
    moments,
    scaled_derivatives,
    _basis_batch,
    _first_panel_width,
    _kernel_sweep,
    _panel_grid,
    _segment_levels,
    _tail_integrals,
    _theta_search,
)
from muntzquad.solver import RuleSpec, compute_rule, continuation_exponents
from quad_oracle import adaptive_integrate


def example1_prefix(length):
    lam = np.empty(length)
    lam[0::2] = np.arange((length + 1) // 2) + 2.0 / 3.0
    lam[1::2] = np.arange(length // 2) - 2.0 / 3.0
    return lam


def residue_sum_basis(lam, x):
    """``L_0(x), ..., L_N(x)`` for distinct exponents as sums of the residues
    of ``x**t`` times the rational kernel, in 50-digit arithmetic."""
    with mp.workdps(50):
        poles = [mp.mpf(float(v)) for v in lam]
        xq = mp.mpf(float(x))
        out = []
        for n in range(len(poles)):
            total = mp.mpf(0)
            for m in range(n + 1):
                term = xq ** poles[m]
                for k in range(n):
                    term *= poles[m] + poles[k] + 1
                for k in range(n + 1):
                    if k != m:
                        term /= poles[m] - poles[k]
                total += term
            out.append(float(total))
    return np.array(out)


def use_fine_discretization(monkeypatch):
    """Half-width panels over the same segment, at a higher panel order."""
    monkeypatch.setattr(muntz, "_PANEL_WIDTH", 0.5)
    monkeypatch.setattr(muntz, "_PANEL_COUNT", 64)
    monkeypatch.setattr(muntz, "_FULL", (32, *muntz._FULL[1:]))


# Shifted sequences (lam + beta/2) the theta search must handle: the two
# reference families, a triple ladder, one right above the integrability
# edge (shifted min(lam) = -1.87) and one with a pair summing to -1 - beta.
THETA_SEARCH_SEQUENCES = {
    "example1": sequence_family("example1", 20) - 0.125,
    "example2": sequence_family("example2", 20) - 1.0 / 6.0,
    "case3": sequence_family("case3", 10),
    "edge": np.array([-2.76, -2.46, -2.06, -1.26, -0.56, 0.34]) + 0.89,
    "reflected_pair": np.array([-0.9, -0.6, 0.2, 1.0]) + 0.25,
}
THETA_SEARCH_OMEGAS = np.geomspace(1e-4, 40.0, 13)


def reference_theta_objective(lam, omega, theta):
    """The theta objective written out from its definition, one omega at a time."""
    lam_min = float(np.min(lam))
    theta = np.asarray(theta, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = np.abs(
            (theta[:, None] - omega * (lam_min + lam[None, :-1] + 1.0))
            / (theta[:, None] + omega * (lam[None, :-1] - lam_min))
        )
        magnitude = np.prod(ratios, axis=1) / np.abs(theta + omega * (lam[-1] - lam_min))
        value = math.exp(math.sqrt(omega)) * magnitude + np.exp(
            np.minimum(theta - lam_min * omega, 700.0)
        ) / np.sqrt(theta)
    return np.where(np.isfinite(value), value, np.inf)


class TestSelectTheta:
    @pytest.mark.parametrize("name", sorted(THETA_SEARCH_SEQUENCES))
    def test_takes_the_best_grid_point(self, name):
        lam = THETA_SEARCH_SEQUENCES[name]
        grid = np.geomspace(muntz._THETA_MIN, muntz._THETA_MAX, 97)
        found = _theta_search(lam, float(np.min(lam)), THETA_SEARCH_OMEGAS)
        assert found.converged
        for omega, theta in zip(THETA_SEARCH_OMEGAS, found.theta):
            assert theta == grid[np.argmin(reference_theta_objective(lam, omega, grid))], omega

    @pytest.mark.parametrize("name", sorted(THETA_SEARCH_SEQUENCES))
    def test_batch_matches_single_points(self, name):
        lam = THETA_SEARCH_SEQUENCES[name]
        lam_min = float(np.min(lam))
        batch = _theta_search(lam, lam_min, THETA_SEARCH_OMEGAS)
        for i, omega in enumerate(THETA_SEARCH_OMEGAS):
            single = _theta_search(lam, lam_min, np.array([omega]))
            assert single.theta[0] == batch.theta[i]

    def test_matches_grid_search(self):
        # one exponent at omega = 1: the objective is e/theta + e**theta/sqrt(theta)
        grid = np.geomspace(muntz._THETA_MIN, muntz._THETA_MAX, 97)
        values = math.e / grid + np.exp(grid) / np.sqrt(grid)
        chosen = _theta_search(np.array([0.0]), 0.0, np.array([1.0]))
        assert chosen.theta[0] == grid[np.argmin(values)]

    def test_positivity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            lam = np.sort(rng.uniform(-0.45, 3.0, size=6))
            omega = float(rng.uniform(0.01, 30.0))
            assert _theta_search(lam, lam[0], np.array([omega])).theta[0] > 0.0

    def test_descent_from_start(self):
        lam = np.array([0.0, 1.0, 2.0])
        omega = 2.0
        lam_min = 0.0
        theta = _theta_search(lam, lam_min, np.array([omega])).theta[0]

        def objective(theta):
            ratios = np.abs(theta - omega * (lam_min + lam[:-1] + 1.0)) / np.abs(
                theta + omega * (lam_min + lam[:-1])
            )
            return math.exp(math.sqrt(omega)) * np.prod(ratios) / abs(
                theta + omega * (lam_min + lam[-1])
            ) + math.exp(theta) / math.sqrt(theta)

        assert objective(theta) <= objective(1.0) + 1e-12


class TestEvalAll:
    def test_exactly_one_at_right_endpoint(self):
        values = eval_all([0.3, 1.7, 2.5, 2.5], 1.0)
        assert np.all(values == 1.0)

    def test_first_degree_element(self):
        values = eval_all([0.0, 1.0], 0.3)
        assert values[0] == pytest.approx(1.0, abs=1e-15)
        assert values[1] == pytest.approx(-0.4, abs=1e-14)

    def test_repeated_exponent_log_element(self):
        grid = np.linspace(0.02, 0.99, 50)
        for x in grid:
            value = eval_all([0.5, 0.5], x)[1]
            exact = math.sqrt(x) * (1.0 + 2.0 * math.log(x))
            assert abs(value - exact) <= 1e-11

    def test_single_exponent_short_circuit(self):
        assert eval_all([1.7], 0.42)[0] == pytest.approx(0.42**1.7, abs=0)

    def test_domain_errors(self):
        for x in (0.0, -0.5, 1.0000001):
            with pytest.raises(DomainError):
                eval_all([0.0, 1.0], x)

    def test_integer_ladder_matches_shifted_legendre(self):
        lam = np.arange(16.0)
        for x in (0.07, 0.37, 0.81):
            values = eval_all(lam, x)
            y = 2 * x - 1
            ref = [1.0, y]
            for k in range(1, 15):
                ref.append(((2 * k + 1) * y * ref[k] - k * ref[k - 1]) / (k + 1))
            assert np.abs(values - np.array(ref)).max() <= 1e-10

    def test_config_consistency(self, monkeypatch):
        lam = example1_prefix(21)
        xs = (1e-3, 0.1, 0.5, 0.9)
        default = [eval_all(lam, x) for x in xs]
        use_fine_discretization(monkeypatch)
        for va, x in zip(default, xs):
            vb = eval_all(lam, x)
            assert np.abs(va - vb).max() <= 1e-12

    @pytest.mark.parametrize("config", ["default", "fine", "walk"])
    def test_matches_residue_sum(self, config, monkeypatch):
        # the walk tier's hyperbola reads 1.3e-13 at worst, at x = 1e-6
        bound = 1e-12 if config == "walk" else 1e-13
        if config == "fine":
            use_fine_discretization(monkeypatch)
        lam = example1_prefix(21)
        for x in (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9):
            exact = residue_sum_basis(lam, x)
            if config == "walk":
                values = _basis_batch(lam, np.array([x]), walk=True)[:, 0]
            else:
                values = eval_all(lam, x)
            error = np.abs(values - exact) / np.maximum(1.0, np.abs(exact))
            assert error.max() <= bound, (x, error.max())

    def test_overflowing_pole_height_leaves_the_values_finite(self):
        # at [0, 1e200] the factor's squared pole height overflows: the factor
        # comes out 0, which leaves L_1 = -1e-200 off by no more than itself
        lam = np.array([0.0, 1e200])
        for x in (1e-3, 0.5, 0.999):
            assert np.abs(eval_all(lam, x) - residue_sum_basis(lam, x)).max() <= 1e-199

    def test_long_prefix_small_x_matches_residue_sum(self):
        # 40 terms shifted by -1/8; the worst point of a 41-point log grid
        # over [1e-12, 0.999] sits at x ~ 7.9e-6
        lam = example1_prefix(40) - 0.125
        for x in np.append(np.geomspace(1e-12, 0.999, 12), 7.94e-6):
            exact = residue_sum_basis(lam, x)
            values = eval_all(lam, x)
            error = np.abs(values - exact) / np.maximum(1.0, np.abs(exact))
            assert error.max() <= 1e-12, (x, error.max())


class TestWalkTier:
    """The walk tier's hyperbola against residue sums and the full tier;
    errors relative to ``max(1, |L_n|)``."""

    def test_long_prefix_small_x_matches_residue_sum(self):
        # the grid of TestEvalAll's 40-term test: 5.7e-11 at worst, at x = 7.9e-6
        lam = example1_prefix(40) - 0.125
        for x in np.append(np.geomspace(1e-12, 0.999, 12), 7.94e-6):
            exact = residue_sum_basis(lam, x)
            values = _basis_batch(lam, np.array([x]), walk=True)[:, 0]
            error = np.abs(values - exact) / np.maximum(1.0, np.abs(exact))
            assert error.max() <= 5e-10, (x, error.max())

    @pytest.mark.parametrize("x", [1e-40, 1e-80, 1e-150])
    def test_tiny_x_matches_residue_sum(self, x):
        # at most 9.8e-14; panels of theta's contour read 1.0e-3, 3.8e-2 and 2.6
        lam = np.array([0.0, 1.0])
        exact = residue_sum_basis(lam, x)
        values = _basis_batch(lam, np.array([x]), walk=True)[:, 0]
        error = np.abs(values - exact) / np.maximum(1.0, np.abs(exact))
        assert error.max() <= 1e-12

    @pytest.mark.parametrize("rows", [80, 120, 200])
    def test_matches_the_full_tier_at_scale(self, rows):
        # example1 n=100 as compute_rule walks it, at its Gauss-Jacobi start;
        # 80 and 120 rows are the largest that the first two shapes serve.
        # The hyperbola reads 8.4e-8, 4.5e-7 and 1.8e-7 against the full
        # tier, where panels of theta's contour read 2.9e-4, 4.0e-3 and 2.7e-2
        lam = np.sort(sequence_family("example1", 100))
        beta = -0.25 + lam[0]
        nodes, _ = _jacobi_start(100, beta)
        shifted = (lam - lam[0] + 0.5 * beta)[:rows]
        walk, full = _basis_batch(shifted, nodes, walk=True), _basis_batch(shifted, nodes)
        assert (np.abs(walk - full) / np.maximum(1.0, np.abs(full))).max() <= 2e-6


def contour_offsets(lam, xs):
    """theta and the numerator/denominator offsets ``_basis_batch`` sweeps with."""
    lam_min = float(np.min(lam))
    omega = -np.log(xs)
    theta = _theta_search(lam, lam_min, omega).theta
    num_off = omega[:, None] * (lam_min + lam[None, :] + 1.0) - theta[:, None]
    den_off = omega[:, None] * (lam_min - lam[None, :]) - theta[:, None]
    return theta, num_off, den_off


def reference_kernel_sweep(t, num_off, den_off, first):
    """The kernel products ``[n, i, k]`` by complex division and ``cumprod``, at complex ``t``."""
    factors = np.empty((num_off.shape[1], num_off.shape[0], t.size), dtype=complex)
    factors[0] = first / (t[None, :] + 1j * den_off[:, :1])
    factors[1:] = (t[None, None, :] + 1j * num_off.T[:-1, :, None]) / (
        t[None, None, :] + 1j * den_off.T[1:, :, None]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumprod(factors, axis=0, out=factors)
    return factors


def full_sweep(*args):
    """Every row of a ``_kernel_sweep`` in one ``[n, i, k]`` array.  The sweep
    reuses its block buffers, so each block is copied out as it is yielded."""
    blocks = [(start, block.copy()) for start, block in muntz._kernel_sweep(*args)]
    assert [start for start, _ in blocks] == [sum(len(b) for _, b in blocks[:j]) for j in range(len(blocks))]
    return np.concatenate([block for _, block in blocks])


class TestKernelSweep:
    @pytest.mark.parametrize("name", ["example1", "case3"])
    @pytest.mark.parametrize("where", ["panel", "tail"])
    def test_matches_complex_division(self, name, where):
        panel_order, laguerre_order = muntz._FULL
        theta, num_off, den_off = contour_offsets(THETA_SEARCH_SEQUENCES[name], np.geomspace(1e-9, 0.99, 9))
        # force point 0 to overflow from prefix 3 on
        num_off[0, 1:3] = 1e200
        segment = 64.0
        if where == "panel":
            t, _, phase = _panel_grid(_first_panel_width(theta), segment, panel_order)
            swept = full_sweep(t, 0.0, num_off, den_off, phase)
            expected = reference_kernel_sweep(t.astype(complex), num_off, den_off, phase)
        else:
            tau = gauss_laguerre(laguerre_order).nodes
            swept = full_sweep(segment, tau, num_off, den_off, 1.0)
            expected = reference_kernel_sweep(segment + 1j * tau, num_off, den_off, 1.0)
        finite = np.isfinite(expected)
        assert np.array_equal(np.isfinite(swept), finite)
        assert not np.any(finite[3:, 0]) and np.all(finite[:, 1:])
        error = np.abs(swept[finite] - expected[finite]) / np.abs(expected[finite])
        assert error.max() <= 1e-14


class TestSegmentLevels:
    def test_tails_match_a_fresh_sweep_at_the_returned_level(self, monkeypatch):
        lam = THETA_SEARCH_SEQUENCES["example1"]
        xs = np.geomspace(1e-9, 0.99, 12)
        theta, num_off, den_off = contour_offsets(lam, xs)
        amplitude = xs ** np.min(lam) * np.exp(theta)
        # the first point overflows from prefix 3 on and never passes
        num_off[0, 1:3] = 1e200
        lag = gauss_laguerre(muntz._FULL[1])
        unbounded = _segment_levels(num_off, den_off, amplitude, theta, lag)
        # at most two doublings: the points that need three stay at level 2
        # without passing, and their tails are swept there
        top = 2
        monkeypatch.setattr(muntz, "_MAX_SEGMENT_DOUBLINGS", top)
        levels = _segment_levels(num_off, den_off, amplitude, theta, lag)
        tails = _tail_integrals(num_off, den_off, levels, lag)

        assert np.any(unbounded[1:] > top)
        assert np.array_equal(levels, np.minimum(unbounded, top))
        assert 0 in levels and levels[0] == top
        assert np.all(np.isfinite(tails))
        base = muntz._PANEL_WIDTH * muntz._PANEL_COUNT
        for i, level in enumerate(levels):
            segment = base * 2.0 ** int(level)
            sweep = full_sweep(segment, lag.nodes, num_off[i : i + 1], den_off[i : i + 1], 1.0)[:, 0]
            np.copyto(sweep, 0.0, where=~np.isfinite(sweep))
            fresh = 1j * np.exp(1j * segment) * (sweep @ lag.weights)
            assert np.array_equal(tails[:, i], fresh), (i, level)
            # a one-point batch gives the same level and the same tail bits
            point = (num_off[i : i + 1], den_off[i : i + 1], amplitude[i : i + 1], theta[i : i + 1], lag)
            assert _segment_levels(*point)[0] == level
            alone = _tail_integrals(num_off[i : i + 1], den_off[i : i + 1], levels[i : i + 1], lag)
            assert np.array_equal(alone[:, 0], tails[:, i]), (i, level)


def level_zero_search(num_off, den_off, amplitude, theta, lag, tails):
    """The tail search with every point starting at level 0, contracting each
    pending point's tail at every level it tries: the oracle for start levels
    and for the tails swept at the levels found."""
    n_points = num_off.shape[0]
    base = muntz._PANEL_WIDTH * muntz._PANEL_COUNT
    levels = np.full(n_points, muntz._MAX_SEGMENT_DOUBLINGS, dtype=int)
    pending = np.arange(n_points)
    damp = np.exp(-lag.nodes)
    dead_cut = muntz._TAIL_NEGLIGIBLE * np.maximum(1.0, amplitude * np.exp(-theta)) / amplitude
    for level in range(muntz._MAX_SEGMENT_DOUBLINGS + 1):
        if pending.size == 0:
            break
        segment = base * 2.0**level
        cut = dead_cut[pending]
        sweep = full_sweep(segment, lag.nodes, num_off[pending], den_off[pending], 1.0)
        magnitudes = np.abs(sweep)
        launch = magnitudes[:, :, :1] + 1.0 / segment
        bump_ok = magnitudes <= muntz._TAIL_BUMP_FACTOR * launch
        dead = magnitudes * damp[None, None, :] <= cut[None, :, None]
        ok = np.all(bump_ok | dead, axis=(0, 2))
        np.copyto(sweep, 0.0, where=~np.isfinite(sweep))
        flat = sweep.reshape(-1, sweep.shape[2]) @ lag.weights
        tails[:, pending] = 1j * np.exp(1j * segment) * flat.reshape(sweep.shape[:2])
        levels[pending[ok]] = level
        pending = pending[~ok]
    return levels


@pytest.fixture(scope="module", params=[("example1", -0.25), ("case3", 0.0)], ids=["example1", "case3"])
def solved(request):
    """The canonically shifted exponents and weight compute_rule walks for a
    10-node spec, and the rule's nodes."""
    family, beta = request.param
    spec = RuleSpec(sequence_family(family, 10), beta)
    lam = np.sort(spec.exponents)
    return lam - lam[0], beta + lam[0], compute_rule(spec).nodes


def tail_inputs(solved, alpha, monkeypatch):
    """The arguments ``_basis_batch`` passes ``_segment_levels`` at the solved
    nodes, for the walk's exponents at ``alpha``: offsets, amplitude, theta, rule."""
    walk, beta, nodes = solved
    calls = []
    monkeypatch.setattr(muntz, "_segment_levels",
                        lambda *args, **kwargs: calls.append(args) or _segment_levels(*args, **kwargs))
    _basis_batch(continuation_exponents(walk, alpha) + 0.5 * beta, nodes)
    monkeypatch.undo()
    (inputs,) = calls
    return inputs


class TestSegmentStartLevel:
    """Starting each point one level below its closed-form reach changes nothing."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_same_levels_and_tails_in_fewer_sweeps(self, solved, alpha, monkeypatch):
        num_off, den_off, amplitude, theta, lag = tail_inputs(solved, alpha, monkeypatch)

        rows = []
        sweep = muntz._kernel_sweep
        monkeypatch.setattr(muntz, "_kernel_sweep", lambda u, v, num, *rest: rows.append(num.shape[0]) or sweep(u, v, num, *rest))
        # every point, then only those starting above level 0 (pole height
        # beyond two base segments), where no sweep happens at level 0
        far = np.max(-den_off, axis=1) > 2.0 * muntz._PANEL_WIDTH * muntz._PANEL_COUNT
        assert 0 < np.count_nonzero(far) < far.size
        for points in (np.arange(far.size), np.flatnonzero(far)):
            offsets = (num_off[points], den_off[points], amplitude[points], theta[points], lag)
            expected_tails = np.empty((num_off.shape[1], points.size), dtype=complex)
            rows.clear()
            expected = level_zero_search(*offsets, expected_tails)
            oracle_rows = sum(rows)
            rows.clear()
            got = _segment_levels(*offsets)
            tested_rows = sum(rows)

            assert np.array_equal(got, expected)
            assert np.array_equal(_tail_integrals(num_off[points], den_off[points], got, lag), expected_tails)
            assert expected.max() >= 2
            assert tested_rows < oracle_rows

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_one_sweep_per_round(self, solved, alpha, monkeypatch):
        inputs = tail_inputs(solved, alpha, monkeypatch)
        den_off = inputs[1]
        lag = inputs[-1]
        top = muntz._MAX_SEGMENT_DOUBLINGS
        segments = muntz._PANEL_WIDTH * muntz._PANEL_COUNT * 2.0 ** np.arange(top + 1)
        start = np.maximum(np.minimum(np.searchsorted(segments, np.max(-den_off, axis=1)), top) - 1, 0)
        # points that start at level 0 and points that start higher
        assert start.min() == 0 < start.max()
        calls = []
        sweep = muntz._kernel_sweep
        monkeypatch.setattr(muntz, "_kernel_sweep", lambda *args: calls.append(args) or sweep(*args))

        levels = level_zero_search(*inputs, np.empty((den_off.shape[1], start.size), dtype=complex))
        # without the points that climb from level 0, no point tries every
        # level some point tries: one sweep per level would take more calls
        split = np.flatnonzero((start > 0) | (levels == 0))
        visited = np.unique(np.concatenate([np.arange(start[i], levels[i] + 1) for i in split]))
        assert np.max(levels[split] - start[split] + 1) < visited.size
        for points in (np.arange(start.size), split):
            offsets = [item[points] for item in inputs[:-1]]
            expected_tails = np.empty((den_off.shape[1], points.size), dtype=complex)
            expected = level_zero_search(*offsets, lag, expected_tails)
            calls.clear()
            got = _segment_levels(*offsets, lag)
            assert np.array_equal(got, expected)
            # one call per round: as many as the most levels one point tries
            assert len(calls) == np.max(got - start[points] + 1)
            assert np.array_equal(_tail_integrals(offsets[0], offsets[1], got, lag), expected_tails)


def record_blocks(monkeypatch):
    """Patch ``muntz._kernel_sweep`` to record each call's block lengths; returns the record."""
    lengths = []
    sweep = muntz._kernel_sweep

    def recording(*args):
        lengths.append([])
        for start, block in sweep(*args):
            lengths[-1].append(len(block))
            yield start, block

    monkeypatch.setattr(muntz, "_kernel_sweep", recording)
    return lengths


ONE_BLOCK = 10**12  # a block size no sweep reaches


class TestBlockedSweep:
    """Any block size gives the bits of a sweep in one block."""

    @pytest.mark.parametrize("length", [2, 3, 19, 20])
    @pytest.mark.parametrize("rows", [2, 3, 5])
    @pytest.mark.parametrize("where", ["panel", "tail"])
    def test_blocks_tile_the_rows_two_or_more_at_a_time(self, monkeypatch, length, rows, where):
        lam = THETA_SEARCH_SEQUENCES["case3"][:length]
        xs = np.geomspace(1e-9, 0.99, 3)
        theta, num_off, den_off = contour_offsets(lam, xs)
        if where == "panel":
            t, _, phase = _panel_grid(_first_panel_width(theta), 64.0, muntz._FULL[0])
            args = (t, 0.0, num_off, den_off, phase)
        else:
            tau = gauss_laguerre(muntz._FULL[1]).nodes
            args = (np.array([[32.0], [64.0], [128.0]]), tau, num_off, den_off, 1.0)
        n_samples = np.broadcast(args[0], args[1]).shape[-1]
        monkeypatch.setattr(muntz, "_BLOCK_SAMPLES", ONE_BLOCK)
        whole = full_sweep(*args)
        monkeypatch.setattr(muntz, "_BLOCK_SAMPLES", rows * xs.size * n_samples)
        lengths = record_blocks(monkeypatch)
        blocked = full_sweep(*args)

        (sizes,) = lengths
        assert sum(sizes) == length and min(sizes) >= 2 and max(sizes) <= rows + 1
        # a one-row remainder joins the first block, and only then is a block rows + 1 long
        assert sizes[0] == (length if length <= rows + 1 else rows + (length % rows == 1))
        assert all(size == rows for size in sizes[1:-1])
        assert np.array_equal(blocked, whole)

    @pytest.mark.parametrize("name", ["example1", "case3"])
    @pytest.mark.parametrize("points", [1, 9])
    @pytest.mark.parametrize("samples", [0, 600])
    @pytest.mark.parametrize("walk", [False, True])
    def test_basis_levels_and_tails_match_one_block(self, monkeypatch, name, points, samples, walk):
        # odd length: blocks of two rows leave a one-row remainder
        lam = THETA_SEARCH_SEQUENCES[name][:-1]
        xs = np.geomspace(1e-9, 0.99, 9)[-points:]
        theta, num_off, den_off = contour_offsets(lam, xs)
        amplitude = xs ** np.min(lam) * np.exp(theta)
        lag = gauss_laguerre(muntz._FULL[1])

        def run(block_samples):
            monkeypatch.setattr(muntz, "_BLOCK_SAMPLES", block_samples)
            if walk:  # one sweep on the hyperbola: no levels and no tails
                # the hyperbola's 48 samples per point against the panels'
                # hundreds: half the budget splits case3's 19 rows into three
                # blocks at one point, as the panel sweeps split theirs
                monkeypatch.setattr(muntz, "_BLOCK_SAMPLES", block_samples // 2)
                return (_basis_batch(lam, xs, walk),)
            levels = _segment_levels(num_off, den_off, amplitude, theta, lag)
            return _basis_batch(lam, xs, walk), levels, _tail_integrals(num_off, den_off, levels, lag)

        whole = run(ONE_BLOCK)
        lengths = record_blocks(monkeypatch)
        blocked = run(samples)
        assert max(len(sizes) for sizes in lengths) > 2
        if samples == 0:  # every sweep in blocks of two, and the first of three
            assert all(sizes[0] == 3 and set(sizes[1:]) == {2} for sizes in lengths)
        for got, expected in zip(blocked, whole):
            assert np.array_equal(got, expected)

    def test_default_size_splits_a_full_tier_level_3_panel_sweep(self):
        lam = THETA_SEARCH_SEQUENCES["example1"]  # example1 n=20, shifted by beta/2
        theta, num_off, den_off = contour_offsets(lam, np.array([0.3]))
        segment = muntz._PANEL_WIDTH * muntz._PANEL_COUNT * 2.0**3
        t, _, phase = _panel_grid(_first_panel_width(theta), segment, muntz._FULL[0])
        sizes = [len(block) for _, block in _kernel_sweep(t, 0.0, num_off, den_off, phase)]
        assert len(sizes) > 1 and sum(sizes) == lam.size


class TestWarmStart:
    """The plan that carries a Newton solve's contour choices."""

    def test_plan_takes_the_evaluations_choices(self, solved):
        walk, beta, nodes = solved
        lam = walk + 0.5 * beta
        plan = muntz.ContourPlan()
        cold = _basis_batch(lam, nodes, plan=plan)
        theta, levels = plan.theta, plan.levels
        assert np.array_equal(cold, _basis_batch(lam, nodes))
        assert np.array_equal(theta, _theta_search(lam, float(np.min(lam)), -np.log(nodes)).theta)
        # the same points again: the same choices and the same bits
        assert np.array_equal(_basis_batch(lam, nodes, plan=plan), cold)
        assert plan.theta is theta and np.array_equal(plan.levels, levels)


class TestEvalAllWeighted:
    def test_exactly_one_at_right_endpoint(self):
        values = eval_all([0.1, 0.9, 2.2], 1.0, 1.4)
        assert np.all(values == 1.0)

    def test_weighted_first_element(self):
        # residue expansion of the shifted pair {1/2, 3/2}: -2 sqrt(x) + 3 x^(3/2)
        value = eval_all([0.0, 1.0], 0.5, 1.0)[1]
        assert value == pytest.approx(-0.5, abs=1e-13)

    def test_weighted_orthogonality_oracle(self):
        lam, beta = [0.0, 1.0], 1.0
        product = adaptive_integrate(
            lambda x: np.prod(eval_all(lam, x, beta)) * x**beta, 1e-10
        )
        assert abs(product) <= 1e-9

    def test_inadmissible(self):
        with pytest.raises(InadmissibleSequenceError):
            eval_all([0.0, 1.0], 0.5, -1.0)


class TestScaledDerivatives:
    def test_monomial(self):
        values = eval_all([2.0], 0.5)
        assert scaled_derivatives(values, [2.0])[0] == pytest.approx(0.5, abs=1e-14)

    def test_first_degree(self):
        values = eval_all([0.0, 1.0], 0.3)
        out = scaled_derivatives(values, [0.0, 1.0])
        assert out[1] == pytest.approx(0.6, abs=1e-13)

    def test_value_at_right_endpoint(self):
        lam = np.array([0.4, 1.3, 2.9, 0.7])
        beta = 0.8
        values = np.ones(lam.size)  # L_n(1) = 1 for every n
        out = scaled_derivatives(values, lam, beta)
        for n in range(lam.size):
            # shifted-basis derivative at 1: (lam_n + beta/2) + sum over
            # earlier k of (2 lam_k + beta + 1)
            expected = lam[n] + beta / 2 + sum(2 * lam[k] + beta + 1 for k in range(n))
            assert out[n] == pytest.approx(expected, rel=1e-13)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            scaled_derivatives(np.ones(3), [0.0, 1.0])


class TestMoments:
    def test_integer_ladder_kills_tail(self):
        m = moments(np.arange(6.0), 0.0)
        assert m[0] == 1.0
        assert np.abs(m[1:]).max() == 0.0

    def test_half_integer_pair(self):
        m = moments([0.5, 1.5], 0.0)
        assert m[0] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert m[1] == pytest.approx(-2.0 / 15.0, rel=1e-15)

    def test_single_element_any_beta(self):
        assert moments([0.7], 0.4)[0] == pytest.approx(1.0 / 2.1, rel=1e-15)

    def test_oracle_agreement(self):
        lam, beta = np.array([0.3, 1.4, 0.9, 2.2]), -0.2
        m = moments(lam, beta)
        for n in range(lam.size):
            oracle = adaptive_integrate(
                lambda x, n=n: eval_all(lam[: n + 1], x, beta)[n] * x**beta,
                1e-12,
            )
            assert abs(m[n] - oracle) <= max(1e-9 * abs(m[n]), 3e-13)

    def test_inadmissible(self):
        with pytest.raises(InadmissibleSequenceError):
            moments([-0.8, 1.0], -0.3)
        assert moments([-0.8, 1.0], 0.0)[0] == pytest.approx(5.0, rel=1e-15)

    def test_correctly_rounded(self):
        # doubles are the 60-digit recurrence rounded once
        lam, beta = np.sort(sequence_family("example1", 20)), -0.25
        with mp.workdps(60):
            exact = [float(mp.mpf(m)) for m in moment_recurrence(lam, beta, mp.mp.prec)]
        assert np.array_equal(moments(lam, beta), exact)


class TestOrthogonalityFamily:
    def test_pairwise_orthogonality_and_norms(self):
        lam = np.array([0.4, 1.2, 2.1, 2.8])
        beta = 0.6
        basis_cache = {}

        def basis(xs):
            key = xs.tobytes()
            if key not in basis_cache:
                vals = _basis_batch(lam + beta / 2, xs)
                basis_cache[key] = vals * xs[None, :] ** (-beta / 2)
            return basis_cache[key]

        for n in range(lam.size):
            for m in range(n + 1):
                value = adaptive_integrate(
                    lambda xs, n=n, m=m: basis(xs)[n] * basis(xs)[m] * xs**beta,
                    1e-10,
                    vectorized=True,
                )
                if n == m:
                    exact = 1.0 / (2 * lam[n] + beta + 1)
                    assert abs(value - exact) <= 1e-8 * abs(exact)
                else:
                    assert abs(value) <= 1e-8


class TestPartitionOfUnity:
    def test_near_right_endpoint(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            size = int(rng.integers(2, 41))
            lam = rng.uniform(-0.45, 0.4, size=size)
            beta = float(rng.uniform(-0.5, 0.4))
            values = eval_all(lam, 1.0 - 1e-8, beta)
            assert np.abs(values - 1.0).max() <= 1e-6
            assert np.all(eval_all(lam, 1.0, beta) == 1.0)
