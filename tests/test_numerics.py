"""The adaptive quadrature oracle that other tests integrate against."""

import math

import numpy as np
import pytest

from quad_oracle import ToleranceNotMetError, adaptive_integrate


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
