import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from muntzquad import classical, muntz, solver
from muntzquad.classical import gauss_jacobi, gauss_legendre
from muntzquad.cli import RuleFile, rule_to_file, sequence_family, validation_rows
from muntzquad.errors import (
    ContinuationFailedError,
    DomainError,
    InadmissibleSequenceError,
    LengthMismatchError,
    MuntzQuadError,
    NewtonDivergedError,
    NonFiniteSampleError,
    SingularMatrixError,
)
from muntzquad.refine import moments
from muntzquad.solver import (
    RuleSpec,
    _polish,
    _predict,
    _solve,
    apply_rule,
    assemble,
    compute_rule,
    continuation_exponents,
    newton_solve,
    transform_to_unit_weight,
)
from test_domain import SPECS as DOMAIN_SPECS


# admissible specs (min lam + beta = -0.99 and -0.9999) whose smallest
# weight underflows in doubles
UNDERFLOW_SPECS = [
    pytest.param(np.array([-80.99, -80.5, -80.0, -79.5]), 80.0, id="beta80"),
    pytest.param(np.array([-20.9999, -20.9, -20.8, -20.7, -20.6, -20.5]), 20.0, id="beta20"),
]

# one exponent far beyond the rest: the walk reaches alpha = 1, and the
# landing from its rule diverges
UNREACHABLE_SPECS = [
    pytest.param(np.array([0.0, 1e6]), 0.0, id="0-1e6"),
    pytest.param(np.array([0.0, 1e8]), 0.0, id="0-1e8"),
]

# specs the walk cannot reach alpha = 1 on: its step falls below its floor,
# at alpha = 0 and at alpha = 0.99917 (ROADMAP item 6)
WALK_FAILURE_SPECS = [
    pytest.param(np.array([0.0, 1.0, 2.0, 1e6]), 0.0, id="0-1-2-1e6"),
    pytest.param(np.array([0.0, 0.0, 1.0, 1.0]), -0.999, id="0-0-1-1-beta-0.999"),
]

# one exponent so far beyond the rest that the walk returns a wrong rule whose
# residual, about 1/max(lam), meets the absolute Newton target; its residual
# is 3e11 to 5e14 times its rounding floor
OFF_FLOOR_SPECS = [
    pytest.param(np.array([0.0, 1e15]), 0.0, id="0-1e15"),
    pytest.param(np.array([0.0, 1.0, 1e15, 1e15 + 1.0]), 0.0, id="0-1-1e15-1e15+1"),
    pytest.param(np.array([-0.999, 1e15]), 0.0, id="-0.999-1e15"),
    pytest.param(np.array([0.0, 1.0, 2.0, 1e18]), 0.0, id="0-1-2-1e18"),
]

# an exponent spread beyond about 6.7e18: x**spread underflows to 0 at every
# double below 1, so no double rule exists; beyond about 1e29 the rounding
# floor check cannot see the wrong rule the walk returns
WIDE_SPREAD_SPECS = [
    pytest.param(np.array([0.0, 1e20]), 0.0, id="0-1e20"),
    pytest.param(np.array([0.0, 1e200]), 0.0, id="0-1e200"),
    pytest.param(np.array([0.0, 1e300]), 0.0, id="0-1e300"),
    pytest.param(np.array([0.0, 1.0, 2.0, 1e30]), 0.0, id="0-1-2-1e30"),
    pytest.param(np.array([0.0, 1.0, 2.0, 1e200]), 0.0, id="0-1-2-1e200"),
]

# beta + min(lam) from about 6e15 (two nodes) or 2e16 (one node): the walk
# start's nodes round to 1 in doubles, and compute_rule says so before the walk
ROUNDED_START_SPECS = [
    pytest.param(np.array([0.0, 1.0]), 3e16, id="0-1-beta3e16"),
    pytest.param(np.arange(6.0), 1e17, id="0..5-beta1e17"),
]

# beta far beyond that: the same error, and no overflow warns on the way
HUGE_BETA_SPECS = [
    pytest.param(np.arange(4.0), 1e154, id="0..3-beta1e154"),
    pytest.param(np.arange(4.0), 1e200, id="0..3-beta1e200"),
    pytest.param(np.arange(6.0), 1e300, id="0..5-beta1e300"),
]

# two or more exponents beyond about 1e154: the squares of both the
# numerator and the denominator offsets of a kernel factor overflow
OVERFLOW_SPECS = [
    pytest.param(np.array([0.0, 1e200, 2e200, 3e200]), 0.0, id="0-1e200-2e200-3e200"),
    pytest.param(np.array([0.0, 1.0, 1e200, 1e200 + 1e190]), 0.0, id="0-1-1e200-1e200+1e190"),
    pytest.param(np.array([0.0, 1e160, 2e160, 3e160]), 0.0, id="0-1e160-2e160-3e160"),
]


def example1(n_nodes):
    lam = np.empty(2 * n_nodes)
    lam[0::2] = np.arange(n_nodes) + 2.0 / 3.0
    lam[1::2] = np.arange(n_nodes) - 2.0 / 3.0
    return lam


class TestContinuationExponents:
    def test_alpha_zero_gives_integers(self):
        out = continuation_exponents([0.4, -0.2, 1.7, 2.9], 0.0)
        assert np.array_equal(out, [0.0, 1.0, 2.0, 3.0])

    def test_alpha_one_identity(self):
        lam = np.array([0.4, -0.2, 1.7, 2.9])
        assert np.array_equal(continuation_exponents(lam, 1.0), lam)

    def test_midpoint_blend(self):
        out = continuation_exponents([2 / 3, -2 / 3, 5 / 3, 1 / 3], 0.5)
        assert np.allclose(out, [1 / 3, 1 / 6, 11 / 6, 5 / 3], atol=1e-15)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            continuation_exponents([0.0, 1.0], 1.5)


class TestSolve:
    def test_rank_deficient_raises(self):
        with pytest.raises(SingularMatrixError):
            _solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))

    def test_non_finite_entry_raises_singular(self):
        with pytest.raises(SingularMatrixError):
            _solve(np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([1.0, 2.0]))

    def test_singular_jacobian_diverges_newton(self, monkeypatch):
        monkeypatch.setattr(solver, "assemble", lambda *args, **kwargs: (np.ones(2), np.zeros((2, 2))))
        lam = np.array([0.0, 1.0])
        with pytest.raises(NewtonDivergedError, match="singular"):
            newton_solve([0.4], [0.9], lam, 0.0, moments(lam, 0.0))


class TestAssemble:
    def test_gauss_jacobi_start_is_exact(self):
        beta = -0.25
        n_nodes = 6
        lam = continuation_exponents(example1(n_nodes), 0.0)
        start = gauss_jacobi(n_nodes, beta)
        residual, _ = assemble(start.nodes, start.weights, lam, beta, moments(lam, beta))
        assert np.abs(residual).max() <= 1e-13

    def test_one_point_quadratic_rule(self):
        # the hyperbola reads 4.0e-14 at the exact rule
        lam = np.array([0.0, 2.0])
        residual, _ = assemble([3**-0.5], [1.0], lam, 0.0, moments(lam, 0.0))
        assert np.abs(residual).max() <= 1e-13

    def test_jacobian_conditioning_at_solution(self):
        rule = compute_rule(RuleSpec(example1(5), -0.25))
        lam = example1(5)
        _, jacobian = assemble(rule.nodes, rule.weights, lam, -0.25, moments(lam, -0.25))
        assert np.linalg.cond(jacobian) < 1e12

    def test_infeasible_iterate_rejected(self):
        lam = np.array([0.0, 1.0])
        m = moments(lam, 0.0)
        with pytest.raises(DomainError):
            assemble([1.5], [1.0], lam, 0.0, m)
        with pytest.raises(DomainError):
            assemble([0.5], [-1.0], lam, 0.0, m)


class TestNewtonSolve:
    def test_fixed_point_converges_immediately(self):
        # the hyperbola reads 8.2e-14 at the exact rule, below the landing's target
        lam = np.array([0.0, 1.0])
        result = newton_solve([0.5], [1.0], lam, 0.0, moments(lam, 0.0))
        assert result.iterations == 0
        assert result.residual <= 1e-13

    def test_midpoint_rule(self):
        lam = np.array([0.0, 1.0])
        result = newton_solve([0.4], [0.9], lam, 0.0, moments(lam, 0.0))
        assert abs(result.nodes[0] - 0.5) <= 1e-13
        assert abs(result.weights[0] - 1.0) <= 1e-13

    def test_one_point_quadratic_rule(self):
        lam = np.array([0.0, 2.0])
        result = newton_solve([0.5], [0.9], lam, 0.0, moments(lam, 0.0))
        assert abs(result.nodes[0] - 3**-0.5) <= 1e-12
        assert abs(result.weights[0] - 1.0) <= 1e-12

    def test_drops_a_diverging_solve_after_two_corrections(self):
        # straight from the alpha = 0 start to the shifted example1 n=6: the
        # second correction is 3.3x the first; a stall test needs a third
        beta = -0.25
        lam = example1(6)
        c = -lam.min()
        shifted = np.sort(lam) + c
        start = gauss_jacobi(6, beta - c)
        with pytest.raises(NewtonDivergedError, match="correction grew") as info:
            newton_solve(start.nodes, start.weights, shifted, beta - c, moments(shifted, beta - c))
        assert info.value.iterations <= 2

    def test_contraction_is_the_ratio_of_the_first_two_corrections(self, monkeypatch):
        beta = -0.25
        lam = continuation_exponents(example1(6), 0.1)
        start = gauss_jacobi(6, beta)
        iterates = []

        def recording(x, w, *args, **kwargs):
            iterates.append((np.array(x), np.array(w)))
            return assemble(x, w, *args, **kwargs)

        monkeypatch.setattr(solver, "assemble", recording)
        result = newton_solve(start.nodes, start.weights, lam, beta, moments(lam, beta))
        assert result.iterations >= 3  # full steps: no damping, no halving
        sizes = [max(np.abs(x1 / x0 - 1.0).max(), np.abs(w1 / w0 - 1.0).max())
                 for (x0, w0), (x1, w1) in zip(iterates, iterates[1:])]
        assert result.contraction == pytest.approx(sizes[1] / sizes[0], rel=1e-9)
        assert 0.0 < result.contraction < 0.25

    def test_one_correction_reports_no_contraction(self):
        lam = np.array([0.0, 1.0])
        result = newton_solve([0.5], [1.0], lam, 0.0, moments(lam, 0.0))
        assert result.contraction == 0.0

    def test_result_carries_the_jacobian_at_its_iterate(self):
        lam = np.array([0.0, 1.0])
        m = moments(lam, 0.0)
        exact = newton_solve([0.5], [1.0], lam, 0.0, m)
        converged = newton_solve([0.4], [0.9], lam, 0.0, m)
        assert exact.iterations == 0
        assert converged.iterations >= 1
        for result in (exact, converged):
            _, jacobian = assemble(result.nodes, result.weights, lam, 0.0, m)
            assert np.array_equal(result.jacobian, jacobian)

    def test_a_stall_near_the_target_diverges(self, monkeypatch):
        # a target below the double-precision floor: the residual gets within
        # 2x of it and stalls there; no iterate short of the target is a
        # result (with the divergence test on, a noise-level correction grows
        # first and ends the solve)
        lam, beta = example1(4), -0.25
        rule = compute_rule(RuleSpec(lam, beta))
        m = moments(lam, beta)
        monkeypatch.setattr(solver, "_TOLERANCE", 5e-17)
        monkeypatch.setattr(solver, "_DIVERGENCE_RATIO", math.inf)
        with pytest.raises(NewtonDivergedError, match="stalled"):
            newton_solve(rule.nodes * (1 + 1e-6), rule.weights * (1 - 1e-6), lam, beta, m)

    @staticmethod
    def near_solution(monkeypatch):
        """Example1 n=6 at alpha = 0.1 solved as a walk step, a start 1e-4
        off it, the solve's arguments, and a list that every ``assemble``
        call appends its iterate to."""
        beta = -0.25
        lam = continuation_exponents(example1(6), 0.1)
        m = moments(lam, beta)
        start = gauss_jacobi(6, beta)
        rule = newton_solve(start.nodes, start.weights, lam, beta, m, True)
        iterates = []

        def recording(x, w, *args, **kwargs):
            iterates.append((np.array(x), np.array(w)))
            return assemble(x, w, *args, **kwargs)

        monkeypatch.setattr(solver, "assemble", recording)
        return (rule.nodes * (1 + 1e-4), rule.weights * (1 - 1e-4), lam, beta, m), iterates

    def test_a_walk_solve_returns_on_a_small_correction_without_assembling(self, monkeypatch):
        args, iterates = self.near_solution(monkeypatch)
        result = newton_solve(*args, True)
        assert result.iterations >= 1
        assert len(iterates) == result.iterations
        x, w = iterates[-1]
        assert max(np.abs(result.nodes / x - 1.0).max(), np.abs(result.weights / w - 1.0).max()) \
            <= solver._WALK_CORRECTION
        # residual and Jacobian belong to the last assembled iterate
        residual, jacobian = assemble(x, w, *args[2:])
        assert result.residual == result.residual_history[-1] == np.abs(residual).max()
        assert np.array_equal(result.jacobian, jacobian)

    def test_a_halved_correction_never_returns_unassembled(self, monkeypatch):
        # every iteration's full step is refused once, so each is halved
        args, iterates = self.near_solution(monkeypatch)
        feasible, refuse = solver._feasible, []

        def refusing_first_trial(x, w):
            if refuse:  # the first trial after an assemble
                refuse.clear()
                return False
            return feasible(x, w)

        record = solver.assemble  # near_solution's recording wrapper

        def assembling(*a, **k):
            out = record(*a, **k)
            refuse.append(True)
            return out

        monkeypatch.setattr(solver, "_feasible", refusing_first_trial)
        monkeypatch.setattr(solver, "assemble", assembling)
        result = newton_solve(*args, True)
        assert result.iterations >= 1
        assert len(iterates) == result.iterations + 1
        assert result.residual <= solver._WALK_TOLERANCE * max(1.0, np.abs(args[4]).max())

    def test_a_landing_never_returns_unassembled(self, monkeypatch):
        args, iterates = self.near_solution(monkeypatch)
        result = newton_solve(*args, False)
        assert result.iterations >= 1
        assert len(iterates) == result.iterations + 1
        assert result.residual <= solver._TOLERANCE * max(1.0, np.abs(args[4]).max())

    def test_local_quadratic_convergence(self):
        # undamped iteration from a perturbed solution: r_{k+1} <= C r_k^2
        beta = 0.0
        lam = example1(3)
        rule = compute_rule(RuleSpec(lam, beta))
        m = moments(lam, beta)
        x = rule.nodes * (1.0 + 3e-4)
        w = rule.weights * (1.0 - 3e-4)
        residuals = []
        for _ in range(4):
            residual, jacobian = assemble(x, w, lam, beta, m)
            residuals.append(float(np.abs(residual).max()))
            step = np.linalg.solve(jacobian, -residual)
            x = x + x / w * step[:3]
            w = w + step[3:]
        assert residuals[1] <= 1e3 * residuals[0] ** 2
        assert residuals[2] <= max(1e3 * residuals[1] ** 2, 5e-15)


class TestComputeRule:
    def test_the_start_takes_one_christoffel_pass(self, monkeypatch):
        # no Newton refinement of the Gauss-Jacobi start: one pass of the
        # orthonormal recurrence, for its weights
        passes = []
        orthonormal_eval = classical._orthonormal_eval

        def counting(*args):
            passes.append(args[3])
            return orthonormal_eval(*args)

        monkeypatch.setattr(classical, "_orthonormal_eval", counting)
        compute_rule(RuleSpec(example1(6), -0.25))
        assert passes == [6]

    def test_integer_ladder_is_gauss_legendre(self):
        for n_nodes in (2, 5):
            rule = compute_rule(RuleSpec(np.arange(2.0 * n_nodes), 0.0))
            gl = gauss_legendre(n_nodes)
            assert np.abs(rule.nodes - gl.nodes).max() <= 1e-12
            assert np.abs(rule.weights - gl.weights).max() <= 1e-12

    def test_one_point_closed_form(self):
        l0, l1 = 0.62, 1.98
        rule = compute_rule(RuleSpec(np.array([l0, l1]), 0.0))
        x_ref = ((1 + l0) / (1 + l1)) ** (1.0 / (l1 - l0))
        w_ref = x_ref ** (-l0) / (1 + l0)
        assert abs(rule.nodes[0] - x_ref) <= 1e-12
        assert abs(rule.weights[0] - w_ref) <= 1e-12 * w_ref

    def test_repeated_pair_closed_form(self):
        lam = 0.62
        rule = compute_rule(RuleSpec(np.array([lam, lam]), 0.0))
        x_ref = math.exp(-1.0 / (1.0 + lam))
        w_ref = x_ref ** (-lam) / (1 + lam)
        assert abs(rule.nodes[0] - x_ref) <= 1e-12
        assert abs(rule.weights[0] - w_ref) <= 1e-12 * w_ref

    def test_exactness_against_moments(self):
        spec = RuleSpec(example1(6), -0.25)
        rule = compute_rule(spec)
        m = moments(spec.exponents, spec.beta)
        residual, _ = assemble(rule.nodes, rule.weights, spec.exponents, spec.beta, m)
        assert np.abs(residual).max() <= 1e-13 * max(1.0, np.abs(m).max())

    def test_permutation_invariance(self):
        lam = np.array([0.3, 1.1, -0.2, 2.4, 0.9, 1.7])
        rule_a = compute_rule(RuleSpec(lam, 0.5))
        rule_b = compute_rule(RuleSpec(lam[::-1].copy(), 0.5))
        assert np.abs(rule_a.nodes - rule_b.nodes).max() <= 1e-12
        assert np.abs(rule_a.weights - rule_b.weights).max() <= 1e-12

    def test_feasibility_invariants(self):
        rule = compute_rule(RuleSpec(np.repeat(np.arange(4.0) - 0.4, 2), -0.3))
        assert rule.nodes[0] > 0 and rule.nodes[-1] < 1
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)

    def test_log_basis_exactness_triple_repeats(self):
        # each integer three times: the space spans x^l log^r x for r <= 2
        lam = np.array([k // 3 for k in range(12)], dtype=float)
        rule = compute_rule(RuleSpec(lam, 0.0))
        for exponent in (0, 1, 2, 3):
            for power in range(3):
                value = apply_rule(rule, lambda x: x**exponent * math.log(x) ** power)
                exact = (-1.0) ** power * math.factorial(power) / (1.0 + exponent) ** (power + 1)
                assert abs(value - exact) <= 1e-12 * abs(exact)

    def test_numerator_vanishing_at_a_pole_polishes(self):
        # lambda_0 + lambda_0 + beta + 1 = 0: the kernel factor t + lambda_0 + 1
        # cancels the pole at lambda_0, which the polish residual must survive
        rule = compute_rule(RuleSpec(np.arange(10.0) - 0.5, 0.0))
        worst = max(err for _, err in validation_rows(rule_to_file(rule)))
        assert worst <= 1e-12

    def test_polish_moves_off_a_low_residual_iterate(self):
        # A walk result right above the integrability edge: its smallest
        # weight is 1.8e-11 off the true rule, yet its exact residual
        # (1.0e-14) is below that of the true rule rounded to doubles
        # (1.2e-14).  Keeping the lowest-residual iterate returned it as is.
        spec = RuleSpec(
            np.array([-2.9489477619677107, -2.441397182148858, -1.9509881144082417, -0.9814180439696503]),
            2.0997829142878865,
        )
        x = np.array([0.006647599915860193, 0.5542582293300354])
        w = np.array([1.9439582341895082e-06, 0.26437996575446476])

        def worst(nodes, weights):
            rows = validation_rows(RuleFile(spec.beta, spec.exponents, nodes, weights))
            return max(err for _, err in rows)

        assert worst(x, w) > 1e-12
        _, jacobian = assemble(x, w, spec.exponents, spec.beta, moments(spec.exponents, spec.beta))
        x, w, residual, _ = _polish(x, w, spec, jacobian)
        assert worst(x, w) <= 1e-15
        assert np.abs(residual).max() <= 2e-14

    def test_contraction_control_rejects_fewer_steps(self):
        # an iteration-count step rule (double after 3 fast solves) rejects 2
        diagnostics = compute_rule(RuleSpec(example1(20), -0.25)).diagnostics
        assert diagnostics.rejected_steps < 2
        assert diagnostics.continuation_steps >= 1

    def test_continuation_failure_reports_last_alpha(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
        monkeypatch.setattr(solver, "_STEP_MIN", 0.06)
        with pytest.raises(ContinuationFailedError) as info:
            compute_rule(RuleSpec(example1(4), -0.25))
        assert info.value.alpha == 0.0
        # the alpha = 0 rule of the walk, in the caller's weight: exact for
        # x**(k + min(lam)) against x**beta
        x, w = info.value.nodes, info.value.weights
        for k in range(8):
            exact = 1.0 / (1.0 + k - 2.0 / 3.0 - 0.25)
            assert abs(np.sum(w * x ** (k - 2.0 / 3.0)) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("lam, beta", [
        pytest.param(np.repeat(np.arange(3.0) - 0.5, 2), 0.0, id="example2-n3"),
        pytest.param(np.arange(10.0) - 5.0, 4.5, id="negative-ladder-large-beta"),
    ])
    def test_cancelled_pole_specs_build(self, lam, beta):
        # a pair with lam_i + lam_j + beta + 1 = 0: a kernel numerator cancels
        # a pole unless the walk runs on the canonical shift c = -min(lam)
        spec = RuleSpec(lam, beta)
        rule = compute_rule(spec)
        assert rule.spec is spec
        assert max(err for _, err in validation_rows(rule_to_file(rule))) <= 1e-12

    @pytest.mark.parametrize("lam, beta", UNREACHABLE_SPECS)
    def test_unreachable_exponent_raises_a_typed_error(self, lam, beta):
        with pytest.raises(NewtonDivergedError, match="landing") as info:
            compute_rule(RuleSpec(lam, beta))
        assert info.value.iterations > 0
        assert 0.0 < info.value.residual < math.inf

    @pytest.mark.parametrize("lam, beta", WALK_FAILURE_SPECS)
    def test_a_walk_short_of_alpha_one_raises_continuation_failed(self, lam, beta):
        with pytest.raises(ContinuationFailedError, match="step size fell below") as info:
            compute_rule(RuleSpec(lam, beta))
        assert info.value.alpha < 1.0

    @pytest.mark.parametrize("lam, beta", ROUNDED_START_SPECS)
    def test_a_start_rounded_onto_one_raises_a_domain_error(self, lam, beta):
        with pytest.raises(DomainError, match="round to 1 in double precision"):
            compute_rule(RuleSpec(lam, beta))

    @pytest.mark.parametrize("lam, beta", OFF_FLOOR_SPECS)
    def test_rule_off_its_rounding_floor_raises_a_typed_error(self, lam, beta):
        with pytest.raises(NewtonDivergedError, match="rounding floor"):
            compute_rule(RuleSpec(lam, beta))

    @pytest.mark.parametrize("lam, beta", WIDE_SPREAD_SPECS)
    def test_spread_beyond_doubles_raises_a_domain_error(self, lam, beta):
        with pytest.raises(DomainError, match="spread"):
            compute_rule(RuleSpec(lam, beta))

    @pytest.mark.parametrize("lam, beta", OVERFLOW_SPECS + HUGE_BETA_SPECS)
    def test_overflowing_pole_heights_raise_a_typed_error_without_a_warning(self, lam, beta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MuntzQuadError):
                compute_rule(RuleSpec(lam, beta))

    @pytest.mark.parametrize("lam, beta", [
        pytest.param(np.arange(4.0) / 2.0, -1.0 + 1e-5, id="0..1.5-beta-1+1e-5"),
        pytest.param(np.arange(16.0) / 2.0, -1.0 + 1e-3, id="0..7.5-beta-1+1e-3"),
        # ROADMAP item 6's named failure, and 0..3.5 of the hard set
        pytest.param(np.arange(6.0) / 2.0, -0.99999, id="0..2.5-beta-0.99999"),
        pytest.param(np.arange(8.0) / 2.0, -1.0 + 1e-5, id="0..3.5-beta-1+1e-5"),
    ])
    def test_integrability_edge_builds(self, lam, beta):
        # min(lam) + beta just above -1, of the hard set of tools/rule_diff.py
        # and ROADMAP item 6; the first fails without the Newton stall test
        # and on a walk hyperbola of 24 samples up to 80 rows
        rule = compute_rule(RuleSpec(lam, beta))
        assert max(err for _, err in validation_rows(rule_to_file(rule))) <= 1e-12

    @pytest.mark.parametrize("lam", [[0.0, 1e4], [0.0, 1.0, 2.0, 1e4], [0.0, 1.0, 2.0, 1e5]],
                             ids=["0-1e4", "0-1-2-1e4", "0-1-2-1e5"])
    def test_large_exponent_within_reach_builds(self, lam):
        # [0, 1, 2, 1e5] reads 2.0e-13; it needs the walk's correction exit
        rule = compute_rule(RuleSpec(np.array(lam), 0.0))
        assert max(err for _, err in validation_rows(rule_to_file(rule))) <= 1e-12

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_one_node_rule_of_a_wide_pair_is_its_closed_form(self, beta):
        # [0, 1e5]: w = 1/(1 + beta) and x = ((1 + beta)/(1 + a + beta))**(1/a);
        # the rule reads 1 and 0 ulps off.  Its validation_rows worst, 7.7e-12
        # at beta = 0, is the x**1e5 row's representation floor, about 1e5 eps
        a = 1e5
        rule = compute_rule(RuleSpec(np.array([0.0, a]), beta))
        with mp.workdps(50):
            node = float(((1 + mp.mpf(beta)) / (1 + mp.mpf(a) + beta)) ** (1 / mp.mpf(a)))
        weight = 1.0 / (1.0 + beta)
        assert abs(rule.nodes[0] - node) <= 2 * np.spacing(node)
        assert abs(rule.weights[0] - weight) <= 2 * np.spacing(weight)
        assert rule.diagnostics.floor_ratio <= 8.0

    @pytest.mark.parametrize("lam, beta", [
        pytest.param([0.0, 1.0], 1e15, id="0-1-beta1e15"),
        pytest.param([0.0, 1.0, 2.0, 3.0], 1e8, id="0-1-2-3-beta1e8"),
    ])
    def test_huge_beta_builds(self, lam, beta):
        # a residual target in orthonormal units, sqrt(1 + 2 lam + beta) times
        # the absolute one, fails these specs
        rule = compute_rule(RuleSpec(np.array(lam), beta))
        assert max(err for _, err in validation_rows(rule_to_file(rule))) <= 1e-12

    @pytest.mark.parametrize("lam, beta", UNDERFLOW_SPECS)
    def test_weight_underflow_raises_a_typed_error(self, lam, beta):
        # admissible, and the shifted walk solves it, but w * x**c rounds the
        # smallest weight to 0 in the caller's weight
        with pytest.raises(DomainError, match="feasibility"):
            compute_rule(RuleSpec(lam, beta))

    def test_shift_invariance(self):
        # (lam, beta) and (lam + c, beta - c) share nodes; weights scale by x**c
        lam, beta, c = np.array([0.3, 1.1, 1.9, 2.4]), 0.2, 0.7
        rule = compute_rule(RuleSpec(lam, beta))
        shifted = compute_rule(RuleSpec(lam + c, beta - c))
        assert np.abs(rule.nodes - shifted.nodes).max() <= 1e-14
        assert np.abs(rule.weights - shifted.weights * rule.nodes**c).max() <= 1e-14 * rule.weights.max()

    def test_continuation_path_is_continuous(self):
        # nodes move O(step) along the blend path
        beta = -0.25
        lam = example1(6)
        start = gauss_jacobi(6, beta)
        x, w = start.nodes.copy(), start.weights.copy()
        step = 0.1
        previous = x.copy()
        for alpha in np.arange(step, 1.0 + step / 2, step):
            lam_alpha = continuation_exponents(lam, alpha)
            result = newton_solve(x, w, lam_alpha, beta, moments(lam_alpha, beta))
            x, w = result.nodes, result.weights
            assert np.abs(x - previous).max() <= 10.0 * step
            previous = x.copy()


def _domain_spec(kind, index):
    return next(RuleSpec(lam, beta) for k, i, lam, beta, _ in DOMAIN_SPECS if (k, i) == (kind, index))


class TestCheapWalk:
    """Every step is solved loosely, and one tighter solve lands the walk's
    rule at alpha = 1."""

    @pytest.mark.parametrize("spec", [
        pytest.param(RuleSpec(example1(10), -0.25), id="example1-n10"),
        pytest.param(RuleSpec(sequence_family("case3", 10), 0.0), id="case3-n10"),
        # a doubled exponent on the edge a + b = -1 - beta
        pytest.param(_domain_spec("reflected_pair", 1), id="reflected_pair-1"),
    ])
    def test_cheap_walk_changes_no_rule(self, spec, monkeypatch):
        cheap = compute_rule(spec)
        # every walk solve as a landing: to the landing's tolerance, with no
        # exit on a small correction
        solve = solver.newton_solve
        monkeypatch.setattr(solver, "newton_solve", lambda *args: solve(*args[:5], False))
        full = compute_rule(spec)
        assert np.array_equal(cheap.nodes, full.nodes)
        assert np.array_equal(cheap.weights, full.weights)

    @staticmethod
    def instrument(monkeypatch, spec, diverge=None):
        """Record every Newton solve of a build of ``spec`` (alpha = 1 or not,
        walk or landing, start, result or None if it diverged, its assemble
        calls in order), every assemble (alpha = 1 or not, and whether a walk
        solve or the landing made it) and, per polish, the assembles made
        before and after it and its iterations, into the lists returned.
        ``diverge``, a solve kind (``True`` for a walk solve, ``False`` for the
        landing), makes the first alpha = 1 solve of that kind raise
        ``NewtonDivergedError`` after 3 iterations at residual 0.25."""
        walk_end = np.sort(spec.exponents) - spec.exponents.min()
        solves, assembles, polishes = [], [], []
        solving_walk = [None]  # the kind of the solve running

        def solving(x, w, lam, beta, m, walk, **kwargs):
            final, first, result = np.array_equal(lam, walk_end), len(assembles), None
            solving_walk[0] = walk
            try:
                if final and walk == diverge and not any(s["final"] and s["walk"] == walk for s in solves):
                    raise NewtonDivergedError("diverged on purpose", iterations=3, residual=0.25)
                result = newton_solve(x, w, lam, beta, m, walk, **kwargs)
                return result
            finally:
                solving_walk[0] = None
                solves.append(dict(final=final, walk=walk, start=(x, w), result=result,
                                   calls=range(first, len(assembles))))

        def assembling(x, w, lam, beta, m, **kwargs):
            assembles.append((np.array_equal(lam, walk_end), solving_walk[0]))
            return assemble(x, w, lam, beta, m, **kwargs)

        def polishing(*args):
            before = len(assembles)
            result = _polish(*args)
            polishes.append((before, len(assembles), result[3]))
            return result

        monkeypatch.setattr(solver, "newton_solve", solving)
        monkeypatch.setattr(solver, "assemble", assembling)
        monkeypatch.setattr(solver, "_polish", polishing)
        return solves, assembles, polishes

    @classmethod
    def record(cls, monkeypatch, spec, diverge=None):
        """Build ``spec`` under ``instrument``: the rule and the three lists."""
        solves, assembles, polishes = cls.instrument(monkeypatch, spec, diverge)
        return compute_rule(spec), solves, assembles, polishes

    @staticmethod
    def assert_landing(solves):
        """The one landing is the last solve, and starts from the nodes and
        weights of the converged walk solve at alpha = 1 just before it;
        returns its index."""
        full = [k for k, s in enumerate(solves) if not s["walk"]]
        assert full == [len(solves) - 1]
        landing, landed = solves[-1], solves[-2]
        assert landing["final"] and landed["final"] and landed["walk"]
        assert landed["result"] is not None
        assert landing["start"][0] is landed["result"].nodes
        assert landing["start"][1] is landed["result"].weights
        return full[0]

    def test_the_landing_starts_from_a_converged_walk_rule_and_polishes(self, monkeypatch):
        spec = RuleSpec(example1(4), -0.25)
        _, solves, assembles, polishes = self.record(monkeypatch, spec)

        # every step, alpha = 1 included, is solved as a walk step first
        assert {s["walk"] for s in solves if not s["final"]} == {True}
        assert any(s["final"] and s["walk"] for s in solves)
        landing = self.assert_landing(solves)
        # every assemble runs in a solve, the landing's are its own, and the
        # polish reuses its last Jacobian and assembles nothing
        assert None not in {walk for _, walk in assembles}
        landing_assembles = [k for k, (_, walk) in enumerate(assembles) if not walk]
        assert landing_assembles == list(solves[landing]["calls"])
        assert [polish[:2] for polish in polishes] == [(len(assembles), len(assembles))]

    # the landing's case is test_a_diverged_landing_ends_the_build
    @pytest.mark.parametrize("walk", [True], ids=["walk"])
    def test_a_diverged_alpha_one_solve_rejects_the_step(self, monkeypatch, walk):
        spec = RuleSpec(example1(4), -0.25)
        plain = compute_rule(spec)
        rule, solves, _, _ = self.record(monkeypatch, spec, diverge=walk)
        failed = next(k for k, s in enumerate(solves) if s["final"] and s["walk"] == walk)
        assert solves[failed]["result"] is None
        # no landing from the prediction: the step is rejected, and the walk
        # retries it with half the step
        assert solves[failed + 1]["walk"]
        self.assert_landing(solves)
        assert rule.diagnostics.rejected_steps == plain.diagnostics.rejected_steps + 1

    def test_a_diverged_landing_ends_the_build(self, monkeypatch):
        spec = RuleSpec(example1(4), -0.25)
        solves, _, polishes = self.instrument(monkeypatch, spec, diverge=False)
        with pytest.raises(NewtonDivergedError, match="landing at alpha = 1 diverged: diverged on purpose") as info:
            compute_rule(spec)
        assert (info.value.iterations, info.value.residual) == (3, 0.25)
        # the landing is the last solve: no re-walk, and no polish
        assert not solves[-1]["walk"] and solves[-1]["result"] is None
        assert [k for k, s in enumerate(solves) if not s["walk"]] == [len(solves) - 1]
        assert solves[-2]["final"] and solves[-2]["result"] is not None
        assert polishes == []

    @pytest.mark.parametrize("spec", [
        pytest.param(RuleSpec(example1(10), -0.25), id="example1-n10"),
        pytest.param(RuleSpec(sequence_family("case3", 10), 0.0), id="case3-n10"),
    ])
    def test_every_sweep_takes_the_one_table(self, spec, monkeypatch):
        # the landing sweeps the walk's hyperbolas too: with its own table it
        # swept 128 samples at 20 rows, where the walk sweeps 48
        sweep, hyperbola = muntz._hyperbola_values, muntz._hyperbola
        rows, swept = [], []  # rows of each sweep; (rows, samples) of each hyperbola taken

        def sweeping(lam, *args):
            rows.append(lam.size)
            return sweep(lam, *args)

        def shaping(base, angle, samples):
            swept.append((rows[-1], samples))
            return hyperbola(base, angle, samples)

        monkeypatch.setattr(muntz, "_hyperbola_values", sweeping)
        monkeypatch.setattr(muntz, "_hyperbola", shaping)
        compute_rule(spec)
        assert len(swept) == len(rows) > 0
        assert all(samples <= next(most for bound, _, _, most in muntz._SHAPES if size <= bound)
                   for size, samples in swept)

    def test_newton_iterations_count_the_landing(self, monkeypatch):
        spec = RuleSpec(example1(4), -0.25)
        rule, solves, _, polishes = self.record(monkeypatch, spec)
        landing = solves[-1]
        assert not landing["walk"] and landing["result"].iterations > 0
        # every solve here converged, so every one was accepted
        assert all(s["result"] is not None for s in solves)
        walked = sum(s["result"].iterations for s in solves[:-1])
        assert rule.diagnostics.newton_iterations == walked + landing["result"].iterations + polishes[0][2]


class TestPredict:
    """The walk's predictor: the polynomial through the last accepted path
    points, in log space."""

    def test_two_points_give_the_secant(self):
        x1, w1 = np.array([0.05, 0.3, 0.7]), np.array([0.2, 0.5, 0.3])
        x2, w2 = np.array([0.04, 0.32, 0.71]), np.array([0.18, 0.52, 0.31])
        alpha1, alpha2, alpha_next = 0.1, 0.25, 0.45
        x_pred, w_pred = _predict([(alpha1, x1, w1), (alpha2, x2, w2)], alpha_next)
        ratio = (alpha_next - alpha2) / (alpha2 - alpha1)
        assert np.array_equal(x_pred, np.exp(np.log(x2) + ratio * (np.log(x2) - np.log(x1))))
        assert np.array_equal(w_pred, np.exp(np.log(w2) + ratio * (np.log(w2) - np.log(w1))))

    def test_three_points_are_exact_on_a_quadratic_log_path(self):
        base_x, base_w = np.array([0.1, 0.4, 0.8]), np.array([0.3, 0.5, 0.2])
        slope, curve = np.array([-0.5, -0.2, -0.1]), np.array([0.3, 0.1, 0.05])

        def point(alpha):
            drift = slope * alpha + curve * alpha**2
            return alpha, base_x * np.exp(drift), base_w * np.exp(-2.0 * drift)

        path = [point(alpha) for alpha in (0.2, 0.35, 0.6)]  # unequal spacing
        _, x_exact, w_exact = point(0.85)
        x_pred, w_pred = _predict(path, 0.85)
        assert np.abs(x_pred / x_exact - 1.0).max() <= 1e-13
        assert np.abs(w_pred / w_exact - 1.0).max() <= 1e-13
        # the secant through the last two points misses
        x_secant, _ = _predict(path[1:], 0.85)
        assert np.abs(x_secant / x_exact - 1.0).max() > 1e-3

    @pytest.mark.parametrize("points", [2, 3])
    def test_an_infeasible_prediction_returns_the_current_iterate(self, points):
        # the first node rises and the second falls: extrapolated to 0.5,
        # they cross inside (0, 1): 0.64 against 0.20 (secant) or 0.095 (quadratic)
        w = np.array([0.5, 0.5])
        nodes = ([0.02, 0.55], [0.04, 0.5], [0.08, 0.4])
        path = [(0.1 * k, np.array(x), w) for k, x in enumerate(nodes)]
        x_pred, w_pred = _predict(path[-points:], 0.5)
        assert x_pred is path[-1][1] and w_pred is path[-1][2]

    def test_an_overflowing_prediction_returns_the_current_iterate(self):
        # the first weight's log rises by 667 per 0.1 of alpha: extrapolated
        # to 0.5 it passes 709, and exp overflows to inf
        path = [(0.0, np.array([0.2, 0.6]), np.array([1e-300, 0.5])),
                (0.1, np.array([0.2, 0.6]), np.array([1e-10, 0.5]))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x_pred, w_pred = _predict(path, 0.5)
        assert x_pred is path[-1][1] and w_pred is path[-1][2]

    @pytest.mark.parametrize("spec, most", [
        # 30 and 52 walk assembles with the secant predictor
        pytest.param(RuleSpec(example1(20), -0.25), 24, id="example1-n20"),
        pytest.param(RuleSpec(sequence_family("case3", 20), 0.0), 44, id="case3-n20"),
    ])
    def test_walk_assembles_fewer_bases(self, spec, most, monkeypatch):
        walk_calls = []
        walking = [False]  # a walk solve is running

        def solving(*args):
            walking[0] = args[5]
            try:
                return newton_solve(*args)
            finally:
                walking[0] = False

        def assembling(*args, **kwargs):
            walk_calls.append(walking[0])
            return assemble(*args, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", solving)
        monkeypatch.setattr(solver, "assemble", assembling)
        compute_rule(spec)
        assert sum(walk_calls) <= most


class TestPolishWork:
    """The polish builds its pole expansion once per rule and takes its
    Jacobian from the alpha = 1 solve."""

    def test_one_expansion_and_one_jacobian_per_polish(self, monkeypatch):
        captured = []
        monkeypatch.setattr(solver, "_polish", lambda *args: captured.append(args) or _polish(*args))
        compute_rule(RuleSpec(example1(5), -0.25))
        (args,) = captured

        counts = {"expansion": 0, "assemble": 0}

        def counting(key, target):
            def wrapper(*a, **k):
                counts[key] += 1
                return target(*a, **k)
            return wrapper

        monkeypatch.setattr(solver.refine, "pole_expansion", counting("expansion", solver.refine.pole_expansion))
        monkeypatch.setattr(solver, "assemble", counting("assemble", assemble))
        *_, iterations = _polish(*args)
        assert iterations >= 1
        assert counts == {"expansion": 1, "assemble": 0}

    def test_polish_stops_at_the_rounding_floor(self, monkeypatch):
        # the correction after the first step of example1 n=20 is below one
        # ulp, so the polish ends there without another exact residual
        captured = []
        monkeypatch.setattr(solver, "_polish", lambda *args: captured.append(args) or _polish(*args))
        compute_rule(RuleSpec(example1(20), -0.25))
        (args,) = captured

        calls = []
        exact_residual = solver.refine.exact_residual
        monkeypatch.setattr(solver.refine, "exact_residual",
                            lambda *a: calls.append(a) or exact_residual(*a))
        _polish(*args)
        assert 1 <= len(calls) <= 2


class TestTransformToUnitWeight:
    def test_identity_at_zero_beta(self):
        rule = compute_rule(RuleSpec(np.array([0.0, 1.0, 2.0, 3.0]), 0.0))
        out = transform_to_unit_weight(rule)
        assert np.array_equal(out.nodes, rule.nodes)
        assert np.array_equal(out.weights, rule.weights)

    def test_beta_one_maps_squares(self):
        rule = compute_rule(RuleSpec(np.array([0.0, 1.0, 2.0, 3.0]), 1.0))
        out = transform_to_unit_weight(rule)
        assert np.allclose(out.nodes, rule.nodes**2, atol=1e-15)
        assert np.allclose(out.weights, 2.0 * rule.weights, atol=1e-15)

    def test_monomial_exactness_after_transform(self):
        spec = RuleSpec(example1(5), -0.25)
        out = transform_to_unit_weight(compute_rule(spec))
        kappa = 1.0 / (1.0 + spec.beta)
        for lam in spec.exponents:
            value = apply_rule(out, lambda x, e=kappa * lam: x**e)
            exact = 1.0 / (kappa * lam + 1.0)
            assert abs(value - exact) <= 1e-12 * abs(exact)


class TestApplyRule:
    def test_constant(self):
        rule = compute_rule(RuleSpec(np.array([0.0, 1.0, 2.0, 3.0]), 0.0))
        assert apply_rule(rule, lambda x: 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_non_finite_sample(self):
        rule = compute_rule(RuleSpec(np.array([0.0, 1.0]), 0.0))
        with pytest.raises(NonFiniteSampleError):
            apply_rule(rule, lambda x: float("nan"))


class TestConfigValidation:
    def test_rule_spec_validation(self):
        with pytest.raises(LengthMismatchError):  # also a ValueError
            RuleSpec(np.array([0.0, 1.0, 2.0]), 0.0)  # odd length
        with pytest.raises(ValueError):
            RuleSpec(np.array([0.0, -1.5]), 0.0)  # divergent moment

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_is_inadmissible(self, beta):
        # min(lam) + nan <= -1 is False, so NaN used to pass the moment check
        with pytest.raises(InadmissibleSequenceError, match="beta must be finite"):
            RuleSpec(np.array([0.0, 1.0]), beta)
        with pytest.raises(InadmissibleSequenceError, match="beta must be finite"):
            moments([0.0, 1.0], beta)
