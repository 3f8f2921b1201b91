import math

import numpy as np
import pytest

from consensuslab import (
    LearningFunction,
    ModelFamily,
    ModelSpec,
    NoiseSpec,
    ScheduleError,
    Table,
    linear_learning,
    scaled_sign_learning,
    scaled_tanh_learning,
    simulate,
    simulate_ensemble,
    step_average,
    step_base,
    step_noisy,
    step_nonlinear,
    step_pure_noise,
)


class TestLearningFunction:
    def test_must_vanish_at_zero(self):
        with pytest.raises(ValueError, match="vanish"):
            LearningFunction(fn=lambda u: u + 1.0)

    def test_bounds_come_in_pairs(self):
        with pytest.raises(ValueError, match="both"):
            LearningFunction(fn=lambda u: u, deriv_inf=0.1)

    def test_bounds_ordered(self):
        with pytest.raises(ValueError, match="exceed"):
            LearningFunction(fn=lambda u: u, derivative=lambda u: u, deriv_inf=0.5, deriv_sup=0.1)

    def test_builders(self):
        f = linear_learning(0.4)
        assert f(2.0) == pytest.approx(0.8)
        assert f.deriv_inf == f.deriv_sup == 0.4
        g = scaled_tanh_learning(0.5, bound=3.0)
        assert g(0.0) == 0.0
        assert g.deriv_sup == 0.5
        assert g.deriv_inf == pytest.approx(0.5 * (1 - math.tanh(3.0) ** 2))
        s = scaled_sign_learning(0.4)
        assert not s.has_declared_bounds
        assert s(-2.0) == -0.4

    def test_derivative_matches_finite_differences(self):
        g = scaled_tanh_learning(0.5, bound=3.0)
        grid = np.linspace(-3, 3, 501)
        h = 1e-6
        fd = (g.fn(grid + h) - g.fn(grid - h)) / (2 * h)
        assert np.max(np.abs(fd - g.derivative(grid))) < 1e-5


class TestModelSpecValidation:
    def test_base_needs_target(self, trust3, rates3):
        with pytest.raises(ValueError, match="sigma_bar"):
            ModelSpec(ModelFamily.BASE, 3, trust3, np.zeros(3), schedule_E=rates3)

    def test_base_refuses_random_noise(self, trust3, rates3):
        with pytest.raises(ValueError, match="zero noise"):
            ModelSpec(
                ModelFamily.BASE, 3, trust3, np.zeros(3),
                schedule_E=rates3, sigma_bar=1.0, noise=NoiseSpec.rademacher(3),
            )

    def test_average_refuses_target(self, pair2):
        a, eps = pair2
        with pytest.raises(ValueError, match="no consensus target"):
            ModelSpec(ModelFamily.AVERAGE, 2, a, np.zeros(2), schedule_E=eps, sigma_bar=1.0)

    def test_noise_dimension_checked(self, pair2):
        a, eps = pair2
        with pytest.raises(ValueError, match="dimension"):
            ModelSpec.average(a, eps, NoiseSpec.rademacher(3), np.zeros(2))

    def test_nonlinear_rejects_rate_schedule(self, trust3):
        with pytest.raises(ValueError, match="learning function"):
            ModelSpec(
                ModelFamily.NONLINEAR, 3, trust3, np.zeros(3),
                schedule_E=np.ones(3), sigma_bar=1.0, learning_fn=linear_learning(0.3),
            )

    def test_nonlinear_per_agent_count(self, trust3):
        with pytest.raises(ValueError, match="per agent"):
            ModelSpec.nonlinear(trust3, [linear_learning(0.3)] * 2, np.zeros(3), sigma_bar=1.0)

    def test_x0_shape(self, trust3, rates3):
        with pytest.raises(ValueError, match="x0"):
            ModelSpec(ModelFamily.BASE, 3, trust3, np.zeros(2), schedule_E=rates3, sigma_bar=1.0)

    def test_weights_shape_checked_against_n(self, trust3, rates3):
        with pytest.raises(ValueError, match="expected"):
            ModelSpec.base(trust3, rates3, 1.0, np.zeros(2))


class TestSteps:
    def test_base_fixed_point(self, trust3, rates3):
        x = np.full(3, 2.5)
        assert np.allclose(step_base(trust3, rates3, 2.5, x), x, rtol=0, atol=1e-13)

    def test_base_zero_rates_is_pure_averaging(self, trust3):
        x = np.array([1.0, -2.0, 0.5])
        assert np.allclose(step_base(trust3, np.zeros(3), 7.0, x), trust3 @ x)

    def test_base_from_origin(self, trust3, rates3):
        # A @ 0 = 0, so one step lands on the rates themselves
        out = step_base(trust3, rates3, 1.0, np.zeros(3))
        assert np.allclose(out, rates3)

    def test_noisy_zero_noise_matches_base(self, trust3, rates3):
        x = np.array([0.2, 0.4, 0.8])
        a = step_noisy(trust3, rates3, 1.0, np.zeros(3), x)
        b = step_base(trust3, rates3, 1.0, x)
        assert np.array_equal(a, b)

    def test_noisy_at_fixed_point_adds_scaled_noise(self, trust3, rates3):
        g = np.array([0.1, -0.2, 0.3])
        x = np.ones(3)
        out = step_noisy(trust3, rates3, 1.0, g, x)
        assert np.allclose(out, 1.0 + rates3 * g, rtol=0, atol=1e-13)

    def test_noisy_scalar_arithmetic(self):
        out = step_noisy(np.ones((1, 1)), [0.5], 2.0, [0.1], [1.0])
        assert out[0] == pytest.approx(1.55)

    def test_pure_noise_feedback_vanishes_when_gamma_equals_state(self, trust3):
        x = np.array([0.3, 0.1, -0.4])
        out = step_pure_noise(trust3, np.array([0.2, 0.5, 0.9]), x, x)
        assert np.allclose(out, trust3 @ x)

    def test_pure_noise_full_replacement(self):
        g = np.array([3.0, -1.0])
        out = step_pure_noise(np.eye(2), np.ones(2), g, np.array([5.0, 5.0]))
        assert np.allclose(out, g)

    def test_pure_noise_scalar(self):
        out = step_pure_noise(np.ones((1, 1)), [0.5], [1.0], [0.0])
        assert out[0] == pytest.approx(0.5)

    def test_nonlinear_linear_case_matches_noisy(self, trust3):
        rng = np.random.default_rng(5)
        f = linear_learning(0.35)
        for _ in range(25):
            x = rng.normal(size=3)
            g = rng.normal(size=3)
            a = step_nonlinear(trust3, f, 1.0, g, x)
            b = step_noisy(trust3, np.full(3, 0.35), 1.0, g, x)
            assert np.max(np.abs(a - b)) < 1e-14

    def test_nonlinear_fixed_point(self, trust3):
        f = scaled_tanh_learning(0.5)
        x = np.ones(3)
        assert np.allclose(step_nonlinear(trust3, f, 1.0, np.zeros(3), x), x, rtol=0, atol=1e-13)

    def test_nonlinear_scalar_tanh(self):
        f = scaled_tanh_learning(0.5)
        out = step_nonlinear(np.ones((1, 1)), f, 1.0, [0.0], [0.0])
        assert out[0] == pytest.approx(math.tanh(1.0) / 2, abs=1e-12)

    def test_nonlinear_per_agent_functions(self, trust3):
        fs = [linear_learning(0.2), linear_learning(0.4), linear_learning(0.6)]
        x = np.array([0.5, 0.1, -0.3])
        out = step_nonlinear(trust3, fs, 1.0, np.zeros(3), x)
        expected = trust3 @ x + np.array([0.2, 0.4, 0.6]) * (1.0 - x)
        assert np.allclose(out, expected)

    def test_average_consensus_invariant(self, pair2):
        a, eps = pair2
        x = np.full(2, 3.7)
        assert np.allclose(step_average(a, eps, np.zeros(2), x), x, rtol=0, atol=1e-13)

    def test_average_zero_rates(self, pair2):
        a, _ = pair2
        x = np.array([1.0, 0.0])
        assert np.allclose(step_average(a, np.zeros(2), np.zeros(2), x), a @ x)

    def test_average_two_agent_example(self, pair2):
        a, eps = pair2
        out = step_average(a, eps, np.zeros(2), np.array([1.0, 0.0]))
        assert np.allclose(out, [0.4, 0.4])

    def test_steps_broadcast_over_runs(self, trust3, rates3):
        rng = np.random.default_rng(1)
        g = rng.normal(size=3)  # one disturbance shared by every run
        f = scaled_tanh_learning(0.4)
        steps = [
            lambda x: step_base(trust3, rates3, 1.0, x),
            lambda x: step_noisy(trust3, rates3, 1.0, g, x),
            lambda x: step_pure_noise(trust3, rates3, g, x),
            lambda x: step_nonlinear(trust3, f, 1.0, g, x),
            lambda x: step_average(trust3, rates3, g, x),
        ]
        for m in (5, 3):  # m == n must not broadcast along the agent axis
            X = rng.normal(size=(3, m))
            for step in steps:
                block = step(X)
                for r in range(m):
                    assert np.allclose(block[:, r], step(X[:, r]))


class TestSimulate:
    def spec3(self, trust3, rates3):
        return ModelSpec.base(trust3, rates3, 1.0, np.zeros(3))

    def test_zero_horizon(self, trust3, rates3):
        traj = simulate(self.spec3(trust3, rates3), 0, seed=1)
        assert traj.states.shape == (1, 3)
        assert np.array_equal(traj.states[0], np.zeros(3))

    def test_deterministic(self, trust3, rates3):
        spec = ModelSpec.noisy(trust3, rates3, 1.0, NoiseSpec.gaussian(np.zeros(3), np.eye(3)), np.zeros(3))
        a = simulate(spec, 50, seed=9)
        b = simulate(spec, 50, seed=9)
        assert np.array_equal(a.states, b.states)

    def test_geometric_envelope(self, trust3, rates3):
        traj = simulate(self.spec3(trust3, rates3), 100, seed=0)
        t = np.arange(101)
        assert np.all(traj.err_inf <= 0.7**t * traj.err_inf[0] + 1e-12)
        assert np.allclose(traj.rho[1:], 0.7)
        assert np.isnan(traj.rho[0])

    def test_envelope_with_time_varying_schedules(self, trust3, rates3):
        # alternate the weights and rates; the error still sits under the
        # running product of per-step contraction factors
        other = np.array([[0.5, 0.25, 0.25], [0.2, 0.6, 0.2], [0.1, 0.1, 0.8]])
        sched_a = lambda t: trust3 if t % 2 else other
        sched_e = lambda t: rates3 if t % 3 else np.array([0.2, 0.4, 0.6])
        spec = ModelSpec(
            ModelFamily.BASE, 3, sched_a, np.array([0.3, -0.5, 2.0]),
            schedule_E=sched_e, sigma_bar=1.0,
        )
        traj = simulate(spec, 60, seed=0)
        envelope = traj.err_inf[0]
        for t in range(1, 61):
            envelope *= traj.rho[t]
            assert traj.err_inf[t] <= envelope + 1e-12

    def test_diagnostics_align_with_states(self, trust3, rates3):
        traj = simulate(self.spec3(trust3, rates3), 20, seed=0)
        for t in (0, 7, 20):
            assert traj.err_inf[t] == pytest.approx(np.abs(traj.states[t] - 1.0).max())
            assert traj.osc[t] == pytest.approx(traj.states[t].max() - traj.states[t].min())

    def test_err_is_nan_without_target(self, pair2):
        a, eps = pair2
        spec = ModelSpec.average(a, eps, NoiseSpec.zero(2), np.array([1.0, 0.0]))
        traj = simulate(spec, 10, seed=0)
        assert np.all(np.isnan(traj.err_inf))
        assert traj.osc[-1] < 1e-12

    def test_terminal_only_mode(self, trust3, rates3):
        full = simulate(self.spec3(trust3, rates3), 30, seed=0)
        lean = simulate(self.spec3(trust3, rates3), 30, seed=0, keep_states=False)
        assert lean.states.shape == (1, 3)
        assert np.array_equal(lean.states[0], full.states[-1])
        assert np.array_equal(lean.err_inf, full.err_inf)

    def test_schedule_error_carries_time(self, trust3, rates3):
        spec = ModelSpec.base(Table([trust3] * 3, t0=1), rates3, 1.0, np.zeros(3))
        with pytest.raises(ScheduleError) as e:
            simulate(spec, 10, seed=0)
        assert e.value.t == 4

    def test_invalid_schedule_value_reported_with_time(self, rates3):
        bad = np.full((3, 3), 0.5)  # rows sum to 1.5
        sched = lambda t: bad
        spec = ModelSpec.base(sched, rates3, 1.0, np.zeros(3))
        with pytest.raises(ScheduleError) as e:
            simulate(spec, 5, seed=0)
        assert e.value.t == 1


class TestSimulateEnsemble:
    def test_single_run_matches_simulate(self, trust3, rates3):
        spec = ModelSpec.noisy(trust3, rates3, 1.0, NoiseSpec.rademacher(3), np.zeros(3))
        traj = simulate(spec, 40, seed=77)
        ens = simulate_ensemble(spec, 40, m=1, master_seed=77)
        assert np.array_equal(ens.terminal_states[0], traj.states[-1])
        for name in ("states", "err_inf", "osc", "rho"):
            assert np.array_equal(getattr(ens.run0, name), getattr(traj, name), equal_nan=True), name

    def test_deterministic(self, pair2):
        a, eps = pair2
        spec = ModelSpec.average(a, eps, NoiseSpec.gaussian(np.zeros(2), np.eye(2)), np.zeros(2))
        e1 = simulate_ensemble(spec, 60, m=20, master_seed=5)
        e2 = simulate_ensemble(spec, 60, m=20, master_seed=5)
        assert np.array_equal(e1.terminal_states, e2.terminal_states)

    def test_runs_are_independent_of_ensemble_size(self, pair2):
        # statistically identical streams per run index: run 0 of m=1 and m=8
        a, eps = pair2
        spec = ModelSpec.average(a, eps, NoiseSpec.gaussian(np.zeros(2), np.eye(2)), np.zeros(2))
        small = simulate_ensemble(spec, 30, m=1, master_seed=3)
        big = simulate_ensemble(spec, 30, m=8, master_seed=3)
        assert np.allclose(small.terminal_states[0], big.terminal_states[0], rtol=0, atol=1e-12)

    def test_snapshots(self, pair2):
        a, eps = pair2
        spec = ModelSpec.average(a, eps, NoiseSpec.rademacher(2), np.zeros(2))
        ens = simulate_ensemble(spec, 25, m=6, master_seed=1, snapshot_times=[0, 10, 25])
        assert set(ens.snapshots) == {0, 10, 25}
        assert ens.snapshots[0].shape == (6, 2)
        assert np.array_equal(ens.snapshots[25], ens.terminal_states)

    def test_snapshot_range_validated(self, pair2):
        a, eps = pair2
        spec = ModelSpec.average(a, eps, NoiseSpec.zero(2), np.zeros(2))
        with pytest.raises(ValueError, match="snapshot"):
            simulate_ensemble(spec, 10, m=2, master_seed=0, snapshot_times=[11])

    def test_mean_error_tracking(self, trust3, rates3):
        spec = ModelSpec.noisy(
            trust3, rates3, 1.0,
            NoiseSpec.gaussian(np.zeros(3), np.eye(3), time_scale=lambda t: 1.0 / t),
            np.zeros(3),
        )
        ens = simulate_ensemble(spec, 200, m=50, master_seed=2, track_mean_err=True)
        assert ens.mean_err_inf.shape == (201,)
        assert ens.mean_err_inf[0] == pytest.approx(1.0)
        assert ens.mean_err_inf[200] < ens.mean_err_inf[20]

    def test_mean_error_needs_target(self, pair2):
        a, eps = pair2
        spec = ModelSpec.average(a, eps, NoiseSpec.zero(2), np.zeros(2))
        with pytest.raises(ValueError, match="target"):
            simulate_ensemble(spec, 5, m=2, master_seed=0, track_mean_err=True)

    def test_to_empirical(self, pair2):
        a, eps = pair2
        spec = ModelSpec.average(a, eps, NoiseSpec.rademacher(2), np.zeros(2))
        ens = simulate_ensemble(spec, 12, m=5, master_seed=4, snapshot_times=[6])
        s_final = ens.to_empirical()
        assert s_final.m == 5 and s_final.t_final == 12
        s_mid = ens.to_empirical(t=6)
        assert np.array_equal(s_mid.points, ens.snapshots[6])

    def test_stationary_law_matches_lyapunov_oracle(self):
        # independent oracle for the whole engine + sampler chain: the
        # stationary covariance of X = M X' + E(target + noise) solves the
        # discrete Lyapunov equation V = M V M^T + E Sigma E^T, and the
        # stationary mean is the target itself
        import scipy.linalg

        a = np.array([[0.7, 0.3], [0.2, 0.8]])
        eps = np.array([0.6, 0.5])
        sigma = np.array([[1.0, 0.4], [0.4, 2.0]])
        spec = ModelSpec.noisy(a, eps, 1.0, NoiseSpec.gaussian(np.zeros(2), sigma), np.zeros(2))
        m = 4000
        ens = simulate_ensemble(spec, 300, m=m, master_seed=31)
        pts = ens.terminal_states
        mm = a - np.diag(eps)
        q = np.diag(eps) @ sigma @ np.diag(eps)
        v = scipy.linalg.solve_discrete_lyapunov(mm, q)
        emp_mean = pts.mean(axis=0)
        emp_cov = np.cov(pts.T, ddof=1)
        mean_se = np.sqrt(np.diagonal(v) / m)
        assert np.all(np.abs(emp_mean - 1.0) < 5 * mean_se)
        cov_se = np.sqrt((np.outer(np.diagonal(v), np.diagonal(v)) + v**2) / m)
        assert np.all(np.abs(emp_cov - v) < 5 * cov_se)
