import math

import numpy as np
import pytest

from muntzquad.errors import SingularMatrixError
from muntzquad.numerics import solve_dense
from quad_oracle import ToleranceNotMetError, adaptive_integrate


class TestSolveDense:
    def test_identity(self):
        p = solve_dense(np.eye(3), [1.0, 2.0, 3.0])
        assert np.allclose(p, [1.0, 2.0, 3.0], rtol=0, atol=1e-15)

    def test_two_by_two(self):
        p = solve_dense([[2.0, 1.0], [1.0, 3.0]], [3.0, 5.0])
        assert np.allclose(p, [0.8, 1.4], rtol=1e-14)

    def test_rank_deficient_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_dense([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])

    def test_non_finite_entry_raises_singular(self):
        with pytest.raises(SingularMatrixError):
            solve_dense([[1.0, np.nan], [0.0, 1.0]], [1.0, 2.0])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            solve_dense(np.ones((2, 3)), [1.0, 2.0])

    def test_random_well_conditioned_residual(self):
        rng = np.random.default_rng(42)
        for n in (5, 20, 100):
            a = rng.standard_normal((n, n)) + n * np.eye(n)
            assert np.linalg.cond(a) < 1e6
            b = rng.standard_normal(n)
            p = solve_dense(a, b)
            residual = np.abs(a @ p - b).max() / np.abs(b).max()
            assert residual <= 1e-12


class TestAdaptiveIntegrate:
    def test_linear(self):
        assert abs(adaptive_integrate(lambda x: x, 1e-12) - 0.5) <= 1e-12

    def test_log(self):
        assert abs(adaptive_integrate(math.log, 1e-12) + 1.0) <= 1e-11

    def test_inverse_sqrt(self):
        assert abs(adaptive_integrate(lambda x: x**-0.5, 1e-12) - 2.0) <= 1e-11

    @pytest.mark.parametrize("a", [-0.4, -0.25, 0.0, 0.5, 2.0])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_power_log_family(self, a, j):
        exact = (-1.0) ** j * math.factorial(j) / (1.0 + a) ** (j + 1)
        value = adaptive_integrate(lambda x: x**a * math.log(x) ** j, 1e-12)
        assert abs(value - exact) <= 1e-10 * abs(exact)

    def test_vectorized_integrand(self):
        value = adaptive_integrate(lambda x: np.sqrt(x), 1e-12, vectorized=True)
        assert abs(value - 2.0 / 3.0) <= 1e-12

    def test_mirrored_singularity_moderate_tolerance(self):
        value = adaptive_integrate(lambda x: (1.0 - x) ** -0.5, 1e-6)
        assert abs(value - 2.0) <= 1e-6

    def test_mirrored_singularity_beyond_representable(self):
        # resolving (1-x)^(-1/2) to 1e-12 needs points closer to 1 than
        # doubles can represent; this must fail loudly, not silently
        with pytest.raises(ToleranceNotMetError):
            adaptive_integrate(lambda x: (1.0 - x) ** -0.5, 1e-12)

    def test_refinement_cap(self):
        with pytest.raises(ToleranceNotMetError):
            adaptive_integrate(lambda x: x**-0.9, 1e-12, max_levels=4)
