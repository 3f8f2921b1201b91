import json
import math

import numpy as np
import pytest

from consensuslab import (
    InconsistentDeclarationError,
    ScheduleError,
    check_average_rates,
    check_base_rates,
    check_ll1,
    check_ll1b,
    check_nonlinear_bounds,
    check_product_to_zero,
    contraction_factor,
    linear_learning,
    nonlinear_rho,
    rho_exp_inverse_square,
    rho_harmonic,
    scaled_sign_learning,
    scaled_tanh_learning,
)
from consensuslab.schedules import Constant


class TestBaseRates:
    def test_satisfied(self, trust3, rates3):
        r = check_base_rates(trust3, rates3)
        assert r.satisfied
        assert np.allclose(r.witness["upper_bounds"], [2 / 3, 1.0, 1.5])

    def test_zero_rate_violates_strictness(self, trust3):
        r = check_base_rates(trust3, [0.0, 0.5, 0.7])
        assert not r.satisfied
        assert r.witness["first_violation"] == 0

    def test_rate_at_twice_diagonal_violates(self, trust3):
        r = check_base_rates(trust3, [0.7, 0.5, 0.7])
        assert not r.satisfied
        assert r.witness["first_violation"] == 0

    def test_agreement_with_contraction_factor(self, trust3):
        rng = np.random.default_rng(0)
        for _ in range(200):
            eps = rng.uniform(-0.5, 2.0, size=3)
            r = check_base_rates(trust3, eps)
            assert r.satisfied == (contraction_factor(trust3, eps) < 1.0)

    def test_weighted_mode_with_unit_weights(self, trust3, rates3):
        r = check_base_rates(trust3, rates3, beta=np.ones(3), delta=1.0)
        assert r.satisfied
        assert r.witness["mode"] == "weighted"

    def test_weighted_mode_detects_domination_failure(self, trust3, rates3):
        r = check_base_rates(trust3, rates3, beta=np.ones(3), delta=0.9)
        assert not r.satisfied

    def test_weighted_mode_relaxes_window(self):
        # substochastic weights admit delta < 1 and a wider rate window
        a = np.array([[0.45, 0.05], [0.05, 0.45]])
        r = check_base_rates(a, [1.05, 1.05], beta=np.ones(2), delta=0.5)
        assert r.satisfied  # |0.45-1.05| + 0.5 - 0.45 = 0.65 < 1
        assert not check_base_rates(a, [1.05, 1.05]).satisfied  # strict window would refuse

    def test_weighted_mode_needs_positive_beta(self, trust3, rates3):
        with pytest.raises(ValueError, match="positive"):
            check_base_rates(trust3, rates3, beta=[1.0, 0.0, 1.0], delta=1.0)


class TestAverageRates:
    def test_two_agent_bound_is_twice_diagonal(self, pair2):
        a, eps = pair2
        r = check_average_rates(a, eps)
        assert r.satisfied
        assert np.allclose(r.witness["upper_bounds"], [1.2, 1.4])

    def test_boundary_strict_vs_inclusive(self, pair2):
        a, _ = pair2
        boundary = 2.0 * np.diagonal(a)
        assert not check_average_rates(a, boundary, strict=True).satisfied
        assert check_average_rates(a, boundary, strict=False).satisfied
        assert check_average_rates(a, [0.0, 0.0], strict=False).satisfied
        assert not check_average_rates(a, [0.0, 0.0], strict=True).satisfied

    def test_single_agent_report_is_strict_json(self):
        doc = check_average_rates(np.eye(1), [0.5]).to_json()
        assert doc["witness"]["upper_bounds"] == [None]  # the n=1 bound is infinite
        json.dumps(doc, allow_nan=False)


class TestProductToZero:
    def test_harmonic_partial_product_is_telescoping(self):
        r = check_product_to_zero(rho_harmonic(999))
        assert r.satisfied
        assert r.witness["partial_product"] == pytest.approx(1 / 1000, rel=1e-10)
        assert r.witness["trend"] == "vanishing"

    def test_exp_inverse_square_stalls_at_positive_constant(self):
        T = 10_000
        r = check_product_to_zero(rho_exp_inverse_square(T))
        assert not r.satisfied
        assert r.witness["trend"] == "stalled"
        # independent oracle: exp of the exact partial sum
        limit = math.exp(-math.fsum(1.0 / k**2 for k in range(1, T + 1)))
        assert r.witness["partial_product"] == pytest.approx(limit, rel=1e-9)
        assert abs(r.witness["partial_product"] - math.exp(-math.pi**2 / 6)) < 1e-3

    def test_constant_half_satisfies_by_threshold(self):
        r = check_product_to_zero(np.full(30, 0.5))
        assert r.satisfied
        assert r.witness["partial_product"] == pytest.approx(2.0**-30)

    def test_rejects_negative_factors(self):
        with pytest.raises(ValueError):
            check_product_to_zero([0.5, -0.1])


class TestLL1:
    def test_constant_half_converges_to_one(self):
        r = check_ll1(np.full(60, 0.5))
        assert r.satisfied
        assert abs(r.witness["sup"] - 1.0) < 1e-9

    def test_constant_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho = rng.uniform(0.05, 0.9)
            sup_true = rho / (1.0 - rho)
            # horizon long enough that the residual rho^T term is below 1e-10
            T = max(80, int(math.log(1e-10 / sup_true) / math.log(rho)) + 10, int(8 * sup_true))
            r = check_ll1(np.full(T, rho))
            assert r.satisfied
            assert abs(r.witness["sup"] - sup_true) < 1e-9

    def test_all_ones_grows_linearly(self):
        r = check_ll1(np.ones(500))
        assert not r.satisfied
        assert r.witness["sup"] == pytest.approx(500.0)

    def test_harmonic_factors_fail_despite_vanishing_product(self):
        # the product condition holds for these factors, this one does not
        rho = rho_harmonic(2000)
        assert check_product_to_zero(rho).satisfied
        r = check_ll1(rho)
        assert not r.satisfied
        assert r.witness["sup"] > 0.4 * 2000 / 2  # S_t grows like t/2


class TestLL1b:
    def test_constant_schedules_sum_exactly_zero(self, trust3, rates3):
        r = check_ll1b(Constant(trust3), Constant(rates3), T=500)
        assert r.satisfied
        assert r.witness["partial_sum"] == 0.0

    def test_constant_schedules_give_the_witness_of_their_plain_callables(self):
        # a Constant schedule is queried once and its increments are not computed; the witness keeps every bit
        T = 301
        a = np.array([[0.6, 0.4], [0.3, 0.7]])
        e = 0.3 + 0.1 * np.sin(np.arange(T + 1)) / np.arange(1, T + 2)
        pairs = [
            ((Constant(a), lambda t: e[t]), (lambda t: a, lambda t: e[t])),
            ((lambda t: a * (1 + 0 * t), Constant(0.3)), (lambda t: a * (1 + 0 * t), lambda t: 0.3)),
        ]
        for constant, plain in pairs:
            fast, slow = check_ll1b(*constant, T=T), check_ll1b(*plain, T=T)
            assert fast.satisfied == slow.satisfied
            assert repr(fast.witness) == repr(slow.witness)
        # a NaN matrix is refused at the first step, as the engine refuses it, from either side
        for schedule_A in (Constant(np.full((2, 2), np.nan)), lambda t: np.full((2, 2), np.nan)):
            with pytest.raises(ScheduleError, match="at t=0: matrix entries must be finite") as raised:
                check_ll1b(schedule_A, Constant(0.3), T=T)
            assert raised.value.t == 0

    def test_harmonic_increments_diverge(self):
        # rate moves by 1/(10 t) every step: partial sums grow like ln(T)/10
        T = 4000
        eps_vals = 0.5 + 0.1 * np.cumsum(np.concatenate([[0.0], 1.0 / np.arange(1, T + 1)]))
        sched_e = lambda t: np.array([eps_vals[t]])
        sched_a = Constant(np.ones((1, 1)))
        r = check_ll1b(sched_a, sched_e, T=T)
        assert not r.satisfied
        harmonic = math.fsum(1.0 / t for t in range(1, T + 1))
        assert r.witness["partial_sum"] == pytest.approx(0.1 * harmonic, rel=1e-9)

    def test_square_summable_increments_pass(self):
        T = 4000
        eps_vals = np.cumsum(np.concatenate([[0.0], 1.0 / np.arange(1, T + 1) ** 2]))
        sched_e = lambda t: np.array([eps_vals[t]])
        sched_a = Constant(np.ones((1, 1)))
        r = check_ll1b(sched_a, sched_e, T=T)
        assert r.satisfied
        assert r.witness["tail_sum"] < 1e-3

    def test_varying_weights_schedule_accumulates_matrix_increments(self):
        # A_t slides between two matrices by summable amounts; the partial
        # sum must equal the accumulated operator-norm increments exactly
        a0 = np.array([[0.6, 0.4], [0.3, 0.7]])
        a1 = np.array([[0.4, 0.6], [0.5, 0.5]])

        def weight(t):
            return 0.5 * (1.0 - 1.0 / (t + 1.0) ** 2)

        sched_a = lambda t: (1 - weight(t)) * a0 + weight(t) * a1
        sched_e = Constant(np.array([0.3, 0.3]))
        T = 500
        r = check_ll1b(sched_a, sched_e, T=T)
        from consensuslab import matrix_inf_norm

        expected = sum(
            matrix_inf_norm(sched_a(t) - sched_a(t - 1)) for t in range(1, T + 1)
        )
        assert r.witness["partial_sum"] == pytest.approx(expected, rel=1e-12)
        assert r.satisfied  # increments shrink like 1/t^3


class TestNonlinearBounds:
    def test_linear_function_inside_window(self):
        a = np.array([[0.2, 0.8], [0.3, 0.7]])
        # min self-weight 0.2 caps the derivative at 0.4
        r = check_nonlinear_bounds(linear_learning(0.3), Constant(a), T=5)
        assert r.satisfied
        r2 = check_nonlinear_bounds(linear_learning(0.5), Constant(a), T=5)
        assert not r2.satisfied

    def test_example_bounds(self):
        a = np.array([[0.3, 0.7], [0.4, 0.6]])
        r = check_nonlinear_bounds(linear_learning(0.4), Constant(a), T=3)
        assert r.satisfied  # 0.4 < 2 * 0.3
        assert r.witness["upper_limit"] == pytest.approx(0.6)

    def test_tanh_default_grid_contradicts_compact_declaration(self, trust3):
        f = scaled_tanh_learning(0.5, bound=3.0)
        with pytest.raises(InconsistentDeclarationError):
            check_nonlinear_bounds(f, Constant(trust3), T=5)  # default grid reaches +-10

    def test_tanh_on_compact_grid_passes(self, trust3):
        f = scaled_tanh_learning(0.5, bound=3.0)
        r = check_nonlinear_bounds(f, Constant(trust3), T=5, grid=np.linspace(-3, 3, 1001))
        assert r.satisfied
        assert r.witness["deriv_sup"] == 0.5
        assert r.witness["min_diagonal"] == pytest.approx(1 / 3)

    def test_sign_function_rejected_outright(self, trust3):
        with pytest.raises(InconsistentDeclarationError, match="no derivative bounds"):
            check_nonlinear_bounds(scaled_sign_learning(0.4), Constant(trust3), T=5)

    def test_per_agent_functions_audited_one_by_one(self):
        a = np.array([[0.6, 0.4], [0.3, 0.7]])
        grid = np.linspace(-3, 3, 1001)
        fs = (scaled_tanh_learning(0.5, bound=3.0), scaled_tanh_learning(0.3, bound=3.0))
        r = check_nonlinear_bounds(fs, Constant(a), T=5, grid=grid)
        assert r.satisfied
        assert r.witness["deriv_inf"] == fs[1].deriv_inf
        assert r.witness["deriv_sup"] == 0.5
        # the second function's declaration holds on [-1, 1] only
        with pytest.raises(InconsistentDeclarationError, match="leaves the declared"):
            check_nonlinear_bounds((fs[0], scaled_tanh_learning(0.3, bound=1.0)), Constant(a), T=5, grid=grid)
        with pytest.raises(InconsistentDeclarationError, match="no derivative bounds"):
            check_nonlinear_bounds((fs[0], scaled_sign_learning(0.4)), Constant(a), T=5, grid=grid)


class TestNonlinearRho:
    def test_linear_case_equals_contraction_factor(self, trust3):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = rng.uniform(0.05, 1.2)
            assert nonlinear_rho(linear_learning(s), trust3) == contraction_factor(trust3, np.full(3, s))

    def test_endpoint_evaluation(self):
        from consensuslab import LearningFunction

        f = LearningFunction(
            fn=lambda u: 0.3 * u,
            derivative=lambda u: np.full_like(np.asarray(u, float), 0.3),
            deriv_inf=0.2,
            deriv_sup=0.4,
        )
        a = np.array([[0.3, 0.7], [0.1, 0.9]])
        # agent 0: max(|0.3-0.2|, |0.3-0.4|) + 0.7 = 0.8
        assert nonlinear_rho(f, a) == pytest.approx(0.8)

    def test_range_collapsed_on_diagonal(self):
        from consensuslab import LearningFunction

        a = np.array([[0.6, 0.4], [0.4, 0.6]])
        f = LearningFunction(
            fn=lambda u: 0.6 * u,
            derivative=lambda u: np.full_like(np.asarray(u, float), 0.6),
            deriv_inf=0.6,
            deriv_sup=0.6,
        )
        # derivative equal to every self-weight cancels perfectly
        assert nonlinear_rho(f, a) == pytest.approx(1 - 0.6)

    def test_requires_declared_bounds(self, trust3):
        with pytest.raises(InconsistentDeclarationError):
            nonlinear_rho(scaled_sign_learning(0.4), trust3)


class TestSanitize:
    def test_finite_float_array_is_its_plain_list(self):
        from consensuslab.conditions import _sanitize

        cov = np.random.default_rng(0).normal(size=(4, 4))
        got = _sanitize({"cov": cov, "n": np.int64(4), "ok": np.bool_(True)})
        assert got == {"cov": cov.tolist(), "n": 4, "ok": True}
        assert type(got["cov"][0][0]) is float

    def test_non_finite_values_become_none(self):
        from consensuslab.conditions import _sanitize

        got = _sanitize(np.array([[1.0, np.nan], [-np.inf, np.float32(2.5)]]))
        assert got == [[1.0, None], [None, 2.5]]
        assert _sanitize(np.array([1, 2])) == [1, 2]
        json.dumps(_sanitize([np.float64(np.inf), (np.array([0.5]),)]), allow_nan=False)

    def test_arrays_orjson_does_not_take_come_back_as_their_tolist(self):
        from consensuslab.conditions import _sanitize

        def leaves(v):
            return [w for u in v for w in leaves(u)] if isinstance(v, list) else [v]

        a = np.arange(6.0).reshape(2, 3) / 7
        # a transpose and a diagonal view are not C-contiguous; a 0-d array is a scalar
        for x in (a.T, np.diagonal(a), np.array(2.5), np.array(3), a[:, ::2].T):
            got, want = _sanitize({"x": x})["x"], x.tolist()
            assert got == want
            assert list(map(type, leaves(got))) == list(map(type, leaves(want)))
        assert _sanitize(np.array(np.inf)) is None
        with pytest.raises(TypeError):
            _sanitize({"x": object()})
