import inspect
import math
import threading
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from muntzquad import muntz
from muntzquad.classical import _jacobi_start
from muntzquad.cli import sequence_family
from muntzquad import eval_all
from muntzquad.errors import DomainError, InadmissibleSequenceError, LengthMismatchError
from muntzquad.muntz import (
    scaled_derivatives,
    _basis_batch,
)
from muntzquad.refine import moments
from quad_oracle import FINE_SHAPES, FULL_SHAPES, adaptive_integrate, basis_on


def example1_prefix(length):
    lam = np.empty(length)
    lam[0::2] = np.arange((length + 1) // 2) + 2.0 / 3.0
    lam[1::2] = np.arange(length // 2) - 2.0 / 3.0
    return lam


def residue_sum_basis(lam, x, beta=0.0, dps=50):
    """``L_0(x), ..., L_N(x)`` under weight ``x**beta`` for distinct exponents:
    ``x**(-beta/2)`` times the sums of the residues of ``x**t`` times the
    rational kernel of the exponents shifted by ``beta/2``, in ``dps``-digit
    arithmetic."""
    with mp.workdps(dps):
        half_beta = mp.mpf(float(beta)) / 2
        poles = [mp.mpf(float(v)) + half_beta for v in lam]
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
            out.append(float(total * xq**-half_beta))
    return np.array(out)


def full_tier(lam, x):
    """The basis at one point on ``FULL_SHAPES``."""
    return basis_on(FULL_SHAPES, lam, np.array([x]))[:, 0]


# Shifted sequences (lam + beta/2) the solver evaluates: a reference family
# and a triple ladder.
SHIFTED_SEQUENCES = {
    "example1": sequence_family("example1", 20) - 0.125,
    "case3": sequence_family("case3", 10),
}


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

    def test_config_consistency(self):
        lam = example1_prefix(21)
        for x in (1e-3, 0.1, 0.5, 0.9):
            fine = basis_on(FINE_SHAPES, lam, np.array([x]))[:, 0]
            assert np.abs(full_tier(lam, x) - fine).max() <= 1e-12

    # "default" and "fine" run on FULL_SHAPES and FINE_SHAPES, "walk" on the
    # module's own table
    @pytest.mark.parametrize("config", ["default", "fine", "walk"])
    def test_matches_residue_sum(self, config):
        # the module's hyperbola reads 1.2e-13 at worst, at x = 0.9
        bound = 1e-12 if config == "walk" else 1e-13
        shapes = {"default": FULL_SHAPES, "fine": FINE_SHAPES, "walk": muntz._SHAPES}[config]
        lam = example1_prefix(21)
        for x in (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9):
            exact = residue_sum_basis(lam, x)
            values = basis_on(shapes, lam, np.array([x]))[:, 0]
            error = np.abs(values - exact) / np.maximum(1.0, np.abs(exact))
            assert error.max() <= bound, (x, error.max())

    def test_overflowing_pole_height_leaves_the_values_finite(self):
        # at [0, 1e200] the factor's squared pole height overflows: the factor
        # comes out 0, which leaves L_1 = -1e-200 off by no more than itself
        lam = np.array([0.0, 1e200])
        for x in (1e-3, 0.5, 0.999):
            assert np.abs(full_tier(lam, x) - residue_sum_basis(lam, x)).max() <= 1e-199

    @pytest.mark.parametrize("lam", [[0.0, 1.0], [0.0, 1.0, 2.5], np.arange(6.0) / 2.0],
                             ids=["0-1", "0-1-2.5", "halves-0..2.5"])
    def test_next_to_one_matches_residue_sum(self, lam):
        # 1.1e-16 at most: nothing is singular as -log(x) -> 0
        x = math.nextafter(1.0, 0.0)
        exact = residue_sum_basis(lam, x)
        assert np.abs(full_tier(lam, x) - exact).max() <= 1e-15

    def test_long_prefix_small_x_matches_residue_sum(self):
        # 40 terms shifted by -1/8; the worst point of a 41-point log grid
        # over [1e-12, 0.999] sits at x ~ 7.9e-6
        lam = example1_prefix(40) - 0.125
        for x in np.append(np.geomspace(1e-12, 0.999, 12), 7.94e-6):
            exact = residue_sum_basis(lam, x)
            values = full_tier(lam, x)
            error = np.abs(values - exact) / np.maximum(1.0, np.abs(exact))
            assert error.max() <= 1e-12, (x, error.max())


class TestWalkTier:
    """The module's hyperbola table against residue sums and ``FULL_SHAPES``;
    errors relative to ``max(1, |L_n|)``."""

    def test_long_prefix_small_x_matches_residue_sum(self):
        # the grid of TestEvalAll's 40-term test: 5.7e-11 at worst, at x = 7.9e-6
        lam = example1_prefix(40) - 0.125
        for x in np.append(np.geomspace(1e-12, 0.999, 12), 7.94e-6):
            exact = residue_sum_basis(lam, x)
            values = _basis_batch(lam, np.array([x]))[:, 0]
            error = np.abs(values - exact) / np.maximum(1.0, np.abs(exact))
            assert error.max() <= 5e-10, (x, error.max())

    @pytest.mark.parametrize("walk, x", [
        *(pytest.param(True, x, id=f"{x:g}") for x in (1e-40, 1e-80, 1e-150, 1e-300)),
        *(pytest.param(False, x, id=f"{x:g}-full") for x in (1e-40, 1e-80, 1e-150, 1e-300)),
    ])
    def test_tiny_x_matches_residue_sum(self, walk, x):
        # the walk reads at most 8.9e-14 and the full tier 4.4e-16; the last
        # sequence moves each curve right by 10*w, up to 6.9e3 at x = 1e-300
        bound = 1e-12 if walk else 1e-15
        for lam in (np.array([0.0, 1.0]), np.arange(6.0) / 2.0, 10.0 + np.arange(6.0) / 2.0):
            exact = residue_sum_basis(lam, x)
            values = basis_on(tier_shapes(walk), lam, np.array([x]))[:, 0]
            error = np.abs(values - exact) / np.maximum(1.0, np.abs(exact))
            assert error.max() <= bound, (lam, error.max())

    @pytest.mark.parametrize("rows", [80, 120, 200])
    def test_matches_the_full_tier_at_scale(self, rows):
        # example1 n=100 as compute_rule walks it, at its Gauss-Jacobi start;
        # 80 and 120 rows are the largest that the first two shapes serve.
        # The walk reads 8.4e-8, 4.5e-7 and 1.8e-7 against the full tier
        lam = np.sort(sequence_family("example1", 100))
        beta = -0.25 + lam[0]
        nodes, _ = _jacobi_start(100, beta)
        shifted = (lam - lam[0] + 0.5 * beta)[:rows]
        walk, full = _basis_batch(shifted, nodes), basis_on(FULL_SHAPES, shifted, nodes)
        assert (np.abs(walk - full) / np.maximum(1.0, np.abs(full))).max() <= 2e-6


# the module's table and FULL_SHAPES, which sizes its sweeps differently:
# more samples, so fewer rows per block
TIERS = pytest.mark.parametrize("walk", [True, False], ids=["walk", "full"])


def tier_shapes(walk):
    return muntz._SHAPES if walk else FULL_SHAPES


@pytest.fixture
def on_tier(monkeypatch):
    """Sets ``muntz._SHAPES`` to a tier's table (see ``tier_shapes``)."""
    return lambda walk: monkeypatch.setattr(muntz, "_SHAPES", tier_shapes(walk))


def tier_samples(lam, walk):
    """The contour samples of a tier's hyperbola for the exponents ``lam``."""
    return next(samples for rows, _, _, samples in tier_shapes(walk) if len(lam) <= rows)


def reference_hyperbola_values(lam, omega, shapes):
    """``_hyperbola_values`` by complex division and ``cumprod``: every kernel
    product ``[n, i, k]`` at once, contracted with the same hyperbola weights.
    Returns the values and the size of their sums, the same contraction of
    the terms' magnitudes: the contour sums cancel, by nearly four digits
    for ``case3`` on the walk tier at x = 0.99, so rounding errors scale
    with the latter."""
    base, angle, samples = next(shape[1:] for shape in shapes if lam.size <= shape[0])
    lam_min = lam.min()
    shift = omega * max(0.0, lam_min)
    mu = base / (1.0 - math.sin(angle))
    h = math.acosh(1.0 + muntz._DECAY / (mu * math.sin(angle))) / samples
    phi = h * (np.arange(samples) + 0.5)
    zeta = mu * (1.0 + np.sin(1j * phi - angle))
    weights = 1j * h * np.exp(zeta - base) * (1j * mu * np.cos(1j * phi - angle))
    t = zeta.imag - 1j * (shift[:, None] + zeta.real)  # -i*zeta on point i's curve
    num_off = omega[:, None] * (lam_min + lam + 1.0)
    den_off = omega[:, None] * (lam_min - lam)
    factors = np.empty((lam.size, *t.shape), dtype=complex)
    factors[0] = 1.0 / (t + 1j * den_off[:, :1])
    factors[1:] = (t + 1j * num_off.T[:-1, :, None]) / (t + 1j * den_off.T[1:, :, None])
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumprod(factors, axis=0, out=factors)
        integrals, sizes = (factors @ weights).imag, np.abs(factors) @ np.abs(weights)
    amplitude = -np.exp(base + shift - lam_min * omega) / math.pi
    return integrals * amplitude, sizes * np.abs(amplitude)


class TestKernelSweep:
    @pytest.mark.parametrize("name", ["example1", "case3"])
    @TIERS
    def test_matches_complex_division(self, name, walk, on_tier):
        on_tier(walk)
        lam, omega = SHIFTED_SEQUENCES[name], -np.log(np.geomspace(1e-9, 0.99, 9))
        swept = muntz._hyperbola_values(lam, omega)
        expected, sizes = reference_hyperbola_values(lam, omega, tier_shapes(walk))
        assert np.all(np.isfinite(swept)) and np.all(np.isfinite(expected))
        # 5.6e-16 at worst; against max(1, |L|) it reads 2.5e-13 on the walk tier
        assert (np.abs(swept - expected) / sizes).max() <= 1e-14

    @TIERS
    def test_overflow_is_non_finite_where_the_reference_is(self, walk, on_tier):
        # a frequency of 1e200, beyond -log of any double, makes the factors of
        # the repeated minimum exponent about 1e200 each, so point 0 overflows
        # from row 2 on; the other points stay finite
        on_tier(walk)
        lam = SHIFTED_SEQUENCES["case3"]
        omega = np.append(1e200, -np.log(np.geomspace(1e-9, 0.99, 8)))
        swept = muntz._hyperbola_values(lam, omega)
        expected, sizes = reference_hyperbola_values(lam, omega, tier_shapes(walk))
        finite = np.isfinite(expected)
        assert np.array_equal(np.isfinite(swept), finite)
        assert np.all(finite[:2, 0]) and not np.any(finite[2:, 0]) and np.all(finite[:, 1:])
        assert (np.abs(swept[finite] - expected[finite]) / sizes[finite]).max() <= 1e-14

    @TIERS
    def test_each_hyperbola_is_built_once_and_read_only(self, walk):
        for _, base, angle, samples in tier_shapes(walk):
            arrays = muntz._hyperbola(base, angle, samples)
            assert muntz._hyperbola(base, angle, samples) is arrays
            # the samples and weights the sweep computed on every call before
            mu = base / (1.0 - math.sin(angle))
            h = math.acosh(1.0 + muntz._DECAY / (mu * math.sin(angle))) / samples
            phi = h * (np.arange(samples) + 0.5)
            zeta = mu * (1.0 + np.sin(1j * phi - angle))
            weights = 1j * h * np.exp(zeta - base) * (1j * mu * np.cos(1j * phi - angle))
            for got, expected in zip(arrays, (zeta.real, zeta.imag, 1.0 / zeta.imag, weights)):
                assert np.array_equal(got, expected)
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[0] = 0.0


ONE_BLOCK = 10**12  # a block size no sweep reaches


class TestBlockedSweep:
    """The block plan, and that any block size gives the bits of a sweep in one block."""

    @pytest.mark.parametrize("length", [2, 3, 19, 20])
    @pytest.mark.parametrize("rows", [2, 3, 5])
    @TIERS
    def test_blocks_tile_the_rows_two_or_more_at_a_time(self, monkeypatch, length, rows, walk, on_tier):
        on_tier(walk)
        lam = SHIFTED_SEQUENCES["case3"][:length]
        xs = np.geomspace(1e-9, 0.99, 3)
        monkeypatch.setattr(muntz, "_BLOCK_SAMPLES", ONE_BLOCK)
        whole = _basis_batch(lam, xs)
        monkeypatch.setattr(muntz, "_BLOCK_SAMPLES", rows * xs.size * tier_samples(lam, walk))
        sizes = muntz._block_rows(length, xs.size, tier_samples(lam, walk))

        assert sum(sizes) == length and min(sizes) >= 2 and max(sizes) <= rows + 1
        # a one-row remainder joins the first block, and only then is a block rows + 1 long
        assert sizes[0] == (length if length <= rows + 1 else rows + (length % rows == 1))
        assert all(size == rows for size in sizes[1:-1])
        assert np.array_equal(_basis_batch(lam, xs), whole)

    @pytest.mark.parametrize("name", ["example1", "case3"])
    @pytest.mark.parametrize("points", [1, 9])
    @pytest.mark.parametrize("samples", [0, 300])
    @TIERS
    def test_basis_matches_one_block(self, monkeypatch, name, points, samples, walk, on_tier):
        # odd length: blocks of two rows leave a one-row remainder; 300
        # samples split the 19 rows into three or more blocks at one point
        on_tier(walk)
        lam = SHIFTED_SEQUENCES[name][:-1]
        xs = np.geomspace(1e-9, 0.99, 9)[-points:]
        monkeypatch.setattr(muntz, "_BLOCK_SAMPLES", ONE_BLOCK)
        whole = _basis_batch(lam, xs)
        monkeypatch.setattr(muntz, "_BLOCK_SAMPLES", samples)
        sizes = muntz._block_rows(lam.size, points, tier_samples(lam, walk))
        assert len(sizes) > 2
        if samples == 0:  # blocks of two, and the first of three
            assert sizes[0] == 3 and set(sizes[1:]) == {2}
        assert np.array_equal(_basis_batch(lam, xs), whole)

    def test_default_size_splits_a_full_tier_sweep(self):
        # example1 n=60 at one node on the former full tier: 120 rows of 512 samples
        sizes = muntz._block_rows(120, 1, tier_samples(range(120), False))
        assert len(sizes) > 1 and sum(sizes) == 120


class TestWorkspace:
    """The sweep's per-thread buffers, kept between calls, leave no trace in its values."""

    def test_threads_and_call_history_leave_the_values_alone(self):
        # example1 n=20 at 20 points and case3 n=10 at 7: blocks of different
        # shapes, so the two threads' workspaces differ in size
        runs = [(SHIFTED_SEQUENCES["example1"], -np.log(np.geomspace(1e-9, 0.99, 20))),
                (SHIFTED_SEQUENCES["case3"], -np.log(np.geomspace(1e-6, 0.9, 7)))]
        serial = [muntz._hyperbola_values(lam, omega) for lam, omega in runs]
        start = threading.Barrier(len(runs))
        matches = [[] for _ in runs]

        def sweep(index):
            lam, omega = runs[index]
            start.wait()
            for _ in range(40):
                matches[index].append(np.array_equal(muntz._hyperbola_values(lam, omega), serial[index]))

        threads = [threading.Thread(target=sweep, args=(index,)) for index in range(len(runs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(len(found) == 40 and all(found) for found in matches)

        # in a fresh thread: the small sweep, then the large one, then the small one again
        large, small = runs
        history = []
        thread = threading.Thread(
            target=lambda: history.extend(muntz._hyperbola_values(*run) for run in (small, large, small)))
        thread.start()
        thread.join()
        assert np.array_equal(history[0], serial[1]) and np.array_equal(history[1], serial[0])
        assert np.array_equal(history[2], history[0])

    def test_a_warm_sweep_allocates_less_than_one_block(self):
        # example1 n=20: 40 rows at 20 points, blocks of 17 rows of 48 samples
        lam, omega = SHIFTED_SEQUENCES["example1"], -np.log(np.geomspace(1e-9, 0.99, 20))
        samples = tier_samples(lam, True)
        block_bytes = muntz._BLOCK_SAMPLES // (omega.size * samples) * omega.size * samples * 16
        muntz._hyperbola_values(lam, omega)
        tracemalloc.start()
        try:
            muntz._hyperbola_values(lam, omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block_bytes


def test_the_sweep_takes_no_table():
    # the module's one table sizes every sweep
    assert list(inspect.signature(_basis_batch).parameters) == ["shifted", "xs"]
    assert list(inspect.signature(muntz._hyperbola_values).parameters) == ["lam", "omega"]


class TestBatchIndependence:
    @TIERS
    def test_a_point_alone_matches_its_batch(self, walk, on_tier):
        # each point's contour and weights depend on that point alone
        on_tier(walk)
        lam = SHIFTED_SEQUENCES["example1"]
        xs = np.array([1e-300, 1e-40, 1e-9, 1e-3, 0.3, 0.9, np.nextafter(1.0, 0.0), 1.0])
        batch = _basis_batch(lam, xs)
        for i, x in enumerate(xs):
            assert np.array_equal(_basis_batch(lam, xs[i : i + 1])[:, 0], batch[:, i]), x


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

    @pytest.mark.parametrize("lam, beta, x", [
        ([0.0, 1.0], 2.0, 1e-10),
        ([0.0, 1.0], 2.0, 1e-40),
        ([0.0, 1.0], 6.0, 1e-10),
        ([0.0, 1.0, 2.0, 3.0], 1.0, 1e-20),
    ])
    def test_small_x_matches_residue_sum(self, lam, beta, x):
        # the factor x**(-beta/2) on the shifted basis's contour values read
        # 5.6e-8, 4.3e21, 3.6e11 and 8.8e-8 here; each value is now rounded once
        exact = residue_sum_basis(lam, x, beta)
        error = np.abs(eval_all(lam, x, beta) - exact) / np.maximum(1.0, np.abs(exact))
        assert error.max() <= 1e-15, error.max()

    @pytest.mark.parametrize("a", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("beta", [2e33, 1e100, 1e300])
    def test_large_beta_matches_the_closed_form(self, a, beta):
        # L_1 of {0, a} under x**beta is ((beta + a + 1) x**a - (beta + 1))/a.
        # The poles beta/2 and a + beta/2, rounded at the working precision,
        # merged here, and eval_all raised ZeroDivisionError; at x = 1, where
        # L_1 is 1, residues of about beta/a cancel
        for x in (0.5, 1e-3, 1.0):
            with mp.workdps(350):
                b = mp.mpf(beta)
                exact = float(((b + a + 1) * mp.mpf(x) ** a - (b + 1)) / a)
            values = eval_all([0.0, a], x, beta)
            assert values[0] == 1.0
            assert abs(values[1] - exact) <= 1e-15 * abs(exact), (x, values[1], exact)

    @pytest.mark.parametrize("a", [1e-100, 1e-300])
    @pytest.mark.parametrize("beta", [0.0, 2.0])
    @pytest.mark.parametrize("x", [0.5, 1e-3, 1.0])
    def test_tiny_gap_matches_the_closed_form(self, a, beta, x):
        # exp(a*log x) rounded to exactly 1 at the expansion's default
        # precision and at its double, and L_1 read 0 at both; at x = 1
        # residues of about 1/a cancel
        with mp.workdps(700):
            a_q, b = mp.mpf(a), mp.mpf(beta)
            exact = float(((b + a_q + 1) * mp.mpf(x) ** a_q - (b + 1)) / a_q)
        values = eval_all([0.0, a], x, beta)
        assert values[0] == 1.0
        assert abs(values[1] - exact) <= 1e-15 * abs(exact), (values[1], exact)

    def test_close_exponents_raise_the_working_precision(self):
        # 30 exponents 1e-3 apart: residues of up to 1e78 cancel, beyond the
        # 67 digits of the expansion's default precision, which read 6e11
        lam = 1.0 + np.arange(30) * 1e-3
        exact = residue_sum_basis(lam, 0.5, 0.5, dps=120)
        error = np.abs(eval_all(lam, 0.5, 0.5) - exact) / np.maximum(1.0, np.abs(exact))
        assert error.max() <= 1e-15, error.max()


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
        # doubles are the recurrence in 60-digit mpmath numbers rounded once
        lam, beta = np.sort(sequence_family("example1", 20)), -0.25
        with mp.workdps(60):
            exact = [1 / (1 + mp.mpf(lam[0]) + beta)]
            for previous, current in zip(lam[:-1], lam[1:]):
                exact.append(exact[-1] * -mp.mpf(previous) / (1 + mp.mpf(current) + beta))
            exact = [float(m) for m in exact]
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
