import math
import os
from dataclasses import replace

import numpy as np
import pytest
import reference_noise
from executors import Inline, Pool

from consensuslab import (
    LearningFunction,
    ModelFamily,
    ModelSpec,
    NoiseSpec,
    ScheduleError,
    Table,
    TableExhaustedError,
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

    def test_the_horizon_snapshot_is_the_terminal_block(self, pair2):
        # an earlier snapshot is its own (m, n) block, byte for byte the states a shorter pass ends in
        a, eps = pair2
        spec = ModelSpec.noisy(a, eps, 1.0, NoiseSpec.gaussian(np.zeros(2), np.eye(2)), np.zeros(2))
        ens = simulate_ensemble(spec, 20, m=40, master_seed=3, snapshot_times=[0, 10, 20])
        assert ens.snapshots[20] is ens.terminal_states
        assert list(ens.snapshots) == [0, 10, 20]
        for t in (0, 10):
            assert ens.snapshots[t] is not ens.terminal_states
            expected = simulate_ensemble(spec, t, m=40, master_seed=3).terminal_states
            assert ens.snapshots[t].tobytes() == expected.tobytes(), t
        assert np.array_equal(ens.to_empirical(20).points, ens.terminal_states)
        zero = simulate_ensemble(spec, 0, m=3, master_seed=3, snapshot_times=[0])
        assert zero.snapshots[0] is zero.terminal_states and np.array_equal(zero.terminal_states, np.zeros((3, 2)))

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


def _contract_noise(n: int = 5):
    damp = lambda t: 1.0 / math.sqrt(t)  # noqa: E731
    mu = np.linspace(-1.0, 2.0, n)
    g = np.random.default_rng(3).normal(size=(n, n))
    return {
        "gaussian_identity": NoiseSpec.gaussian(np.zeros(n), np.eye(n)),
        "gaussian_diagonal": NoiseSpec.gaussian(mu, np.diag(np.linspace(0.1, 2.0, n)), time_scale=damp),
        "gaussian_dense": NoiseSpec.gaussian(mu, g @ g.T + np.eye(n), time_scale=damp),
        "rademacher": NoiseSpec.rademacher(n, time_scale=damp),
        "cauchy": NoiseSpec.cauchy(n, scale=0.7, time_scale=damp),
    }


def _contract_model(family: str, n: int, noise: NoiseSpec) -> ModelSpec:
    """One model per family at ``n`` agents, with time-varying and table schedules."""
    rng = np.random.default_rng(4)
    a = rng.uniform(0.1, 1.0, size=(n, n)) + 2.0 * np.eye(n)
    a /= a.sum(axis=1, keepdims=True)
    x0 = np.linspace(-1.5, 1.0, n)
    d = np.diagonal(a)
    if family == "base":
        return ModelSpec.base(a, Table([0.8 * d] * 40, t0=1), 1.0, x0)
    if family == "noisy":
        return ModelSpec.noisy(a, lambda t: 0.8 * d * (1.0 - 0.5 / t), 1.0, noise, x0)
    if family == "pure_noise":
        return ModelSpec.pure_noise(Table([a] * 40, t0=1), 0.6 * d, noise, x0)
    if family == "nonlinear":
        fns = [linear_learning(0.3) if i % 2 else scaled_tanh_learning(0.4) for i in range(n)]
        return ModelSpec.nonlinear(a, fns, x0, sigma_bar=1.0, noise=noise)
    return ModelSpec.average(a, 0.5 * d, noise, x0)


_FAMILY_NOISE = {
    "base": None,
    "noisy": "gaussian_diagonal",
    "pure_noise": "rademacher",
    "nonlinear": "cauchy",
    "average": "gaussian_dense",
}


class TestReproducibilityContract:
    """Run r's noise and states are a pure function of (spec, T, master_seed, r).

    They must not depend on the ensemble width m, on how the engine chunks
    its noise or on the thread that transforms it; chunk sizes are forced
    through ``noise.CHUNK_VALUES``. Every chunk is one of two in the chunk
    budget (it goes one ahead), so a forced budget is doubled. Noise rows
    are compared with ``reference_noise``, the addressing one run and one
    step at a time.
    """

    # one step past a multiple of 8, so 4- and 8-step chunking ends on a one-step chunk
    T = 25
    WIDTHS = (1, 2, 3, 7, 9)
    REFERENCE_WIDTH = 16

    @staticmethod
    def _force(monkeypatch, m, n, k=None):
        """Force ``k``-step chunks at the padded width of ``m`` runs, each one of two in the budget."""
        from consensuslab import noise

        if k is not None:
            monkeypatch.setattr(noise, "CHUNK_VALUES", 2 * k * noise.padded_width(m) * n)

    @staticmethod
    def _run_rows(chunks) -> np.ndarray:
        """Every column's steps as (width, T, n): the runs, then the pad runs."""
        return np.stack([g.copy() for g in chunks]).transpose(2, 0, 1)

    @staticmethod
    def _parts(chunks) -> int:
        """Transform parts of a pass: per chunk, ``TRANSFORM_PARTS`` or the chunk's steps if fewer."""
        from consensuslab import noise

        k = chunks.chunk_steps
        return sum(min(noise.TRANSFORM_PARTS, min(k, chunks.T - c0)) for c0 in range(0, chunks.T, k))

    @classmethod
    def _expect_reference(cls, rows, spec, m: int, seed: int = 41):
        """Each run's rows are the reference's: bit for bit, or within rounding for a dense factor."""
        for r in range(m):
            expected = reference_noise.run_noise(spec, cls.T, seed, r)
            if reference_noise.dense(spec):
                np.testing.assert_allclose(rows[r], expected, rtol=0, atol=1e-12)
            else:
                assert np.array_equal(rows[r], expected), r

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16])
    @pytest.mark.parametrize("kind", [k for k in _contract_noise() if k != "gaussian_identity"])
    def test_engine_noise_rows_ignore_width_and_chunking(self, kind, n, monkeypatch):
        from consensuslab.noise import NoiseChunks, padded_width

        spec = _contract_noise(n)[kind]
        reference = self._run_rows(NoiseChunks(spec, self.T, self.REFERENCE_WIDTH, 41))
        self._expect_reference(reference, spec, self.REFERENCE_WIDTH)
        for m in self.WIDTHS:
            for k in (1, 3, None):
                self._force(monkeypatch, m, n, k)
                chunks = NoiseChunks(spec, self.T, m, 41)
                assert chunks.chunk_steps == (self.T if k is None else k)
                assert chunks.width == padded_width(m)
                rows = self._run_rows(chunks)
                assert np.array_equal(rows, reference[: chunks.width]), (m, k)
                assert chunks.uniforms_drawn == self.T * n * chunks.width and chunks.philox_calls == self.T
                monkeypatch.undo()

    @pytest.mark.parametrize(
        "kind, n, forced",
        [
            ("rademacher", 2, 2),
            ("rademacher", 2, 3),
            ("rademacher", 2, 6),
            ("gaussian_diagonal", 4, 1),
            ("cauchy", 4, 3),
            ("cauchy", 5, 3),
            ("cauchy", 5, 6),
            ("gaussian_dense", 2, 2),
            ("gaussian_dense", 2, 6),
            ("gaussian_dense", 4, 1),
        ],
    )
    def test_chunks_hold_any_whole_number_of_steps(self, kind, n, forced, monkeypatch):
        # every step restarts its own counter, so a chunk needs no alignment to Philox blocks
        # or to the steps a dense factor's product groups
        from consensuslab.noise import NoiseChunks

        spec = _contract_noise(n)[kind]
        self._force(monkeypatch, 3, n, forced)
        chunks = NoiseChunks(spec, self.T, 3, 41)
        assert chunks.chunk_steps == forced and type(chunks.chunk_steps) is int
        self._expect_reference(self._run_rows(chunks), spec, 3)

    @pytest.mark.parametrize("n", [1, 2, 16, 100])
    @pytest.mark.parametrize("family", list(_FAMILY_NOISE))
    def test_terminal_state_ignores_width_and_chunking(self, family, n, monkeypatch):
        kind = _FAMILY_NOISE[family]
        spec = _contract_model(family, n, None if kind is None else _contract_noise(n)[kind])
        reference = simulate_ensemble(spec, self.T, self.REFERENCE_WIDTH, master_seed=8).terminal_states
        for m in self.WIDTHS:
            ens = simulate_ensemble(spec, self.T, m, master_seed=8)
            assert np.array_equal(ens.terminal_states, reference[:m]), m
            assert np.array_equal(ens.run0.terminal, reference[0]), m
        for k in (1, 3, None):
            self._force(monkeypatch, 9, n, k)
            ens = simulate_ensemble(spec, self.T, 9, master_seed=8)
            monkeypatch.undo()
            assert np.array_equal(ens.terminal_states, reference[:9]), k

    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("family", list(_FAMILY_NOISE))
    def test_the_engine_steps_as_the_public_step_functions_do(self, family, n):
        # the engine writes each step's product into a block it keeps, the public steps into a
        # new array; on the engine's block of runs and pad columns they give the same bytes
        from consensuslab.noise import NoiseChunks, padded_width

        kind = _FAMILY_NOISE[family]
        spec = _contract_model(family, n, None if kind is None else _contract_noise(n)[kind])
        m = 5
        W = padded_width(m)
        noise = np.zeros((self.T, n, W))
        if kind is not None:
            noise[...] = [g.copy() for g in NoiseChunks(spec.noise, self.T, m, 8)]
        X = np.repeat(spec.x0[:, None], W, axis=1)
        for t in range(1, self.T + 1):
            a, g = spec.schedule_A(t), noise[t - 1]
            e = None if spec.schedule_E is None else spec.schedule_E(t)
            X = {
                "base": lambda: step_base(a, e, spec.sigma_bar, X),
                "noisy": lambda: step_noisy(a, e, spec.sigma_bar, g, X),
                "pure_noise": lambda: step_pure_noise(a, e, g, X),
                "nonlinear": lambda: step_nonlinear(a, spec.learning_fn, spec.sigma_bar, g, X),
                "average": lambda: step_average(a, e, g, X),
            }[family]()
        ens = simulate_ensemble(spec, self.T, m, master_seed=8)
        assert np.array_equal(ens.terminal_states, X[:, :m].T)

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize("family", list(_FAMILY_NOISE))
    def test_chunks_reproduce_the_one_chunk_pass(self, family, n, monkeypatch):
        kind = _FAMILY_NOISE[family]
        spec = _contract_model(family, n, None if kind is None else _contract_noise(n)[kind])
        times = (0, 7, 12, self.T)
        for m in self.WIDTHS + (37,):
            ref = simulate_ensemble(spec, self.T, m, master_seed=8, snapshot_times=times)
            assert ref.engine["chunk_steps"] == self.T
            for k in (1, 4):
                self._force(monkeypatch, m, n, k)
                ens = simulate_ensemble(spec, self.T, m, master_seed=8, snapshot_times=times)
                monkeypatch.undo()
                if kind is not None:  # deterministic steps are one shared column, so more fit a chunk
                    assert ens.engine["chunk_steps"] == k, (m, k)
                assert np.array_equal(ens.terminal_states, ref.terminal_states), (m, k)
                for name in ("states", "err_inf", "osc", "rho"):
                    assert np.array_equal(getattr(ens.run0, name), getattr(ref.run0, name), equal_nan=True), name
                assert list(ens.snapshots) == list(ref.snapshots)
                for t in times:
                    assert np.array_equal(ens.snapshots[t], ref.snapshots[t]), (m, k, t)

    @pytest.mark.parametrize("k", [None, 1, 3])
    def test_error_tracking_is_the_mean_of_every_run_error(self, k, monkeypatch):
        # tracking the error changes no state, and each step's mean is every run's sup error
        # averaged, whatever the chunking
        spec = _contract_model("noisy", 2, _contract_noise(2)["gaussian_diagonal"])
        times = range(self.T + 1)
        self._force(monkeypatch, 37, 2, k)
        ref = simulate_ensemble(spec, self.T, 37, master_seed=8, snapshot_times=times)
        tracked = simulate_ensemble(spec, self.T, 37, master_seed=8, snapshot_times=times, track_mean_err=True)
        assert tracked.engine == ref.engine and ref.engine["chunk_steps"] == (self.T if k is None else k)
        assert np.array_equal(tracked.terminal_states, ref.terminal_states)
        for t in times:
            assert np.array_equal(tracked.snapshots[t], ref.snapshots[t]), t
        mean = np.array([np.abs(ref.snapshots[t] - spec.sigma_bar).max(axis=1).mean() for t in times])
        assert np.array_equal(tracked.mean_err_inf, mean)

    @staticmethod
    def _worker_noise(n: int, kind: str) -> NoiseSpec:
        """The contract's noise of ``kind`` without its time_scale; ``time_scale`` is the dense Gaussian with it."""
        spec = _contract_noise(n)["gaussian_dense" if kind == "time_scale" else kind]
        return spec if kind == "time_scale" else replace(spec, time_scale=None)

    def test_time_scale_is_evaluated_once_per_step(self, monkeypatch):
        from consensuslab import noise

        calls = []
        spec = NoiseSpec.cauchy(2, scale=0.7, time_scale=lambda t: calls.append(t) or 1.0 / t)
        self._force(monkeypatch, 37, 2, 2)
        chunks = noise.NoiseChunks(spec, self.T, 37, 41)
        list(chunks)
        # 13 chunks of up to 2 steps, each step a part sent one ahead to the worker
        assert chunks.transform_parts == self.T
        assert calls == list(range(1, self.T + 1))

    def test_a_raising_time_scale_propagates(self, monkeypatch):
        from consensuslab import noise

        def scale(t):
            if t == 13:
                raise ArithmeticError(f"no scale at step {t}")
            return 1.0 / t

        spec = NoiseSpec.gaussian(np.zeros(2), np.eye(2), time_scale=scale)
        with pytest.raises(ArithmeticError, match="^no scale at step 13$"):
            noise.sample_noise_block(spec, self.T, np.random.default_rng(41))
        for executor in (None, Inline(), Pool(eager=True)):
            self._force(monkeypatch, 37, 2, 2)
            if executor is not None:
                monkeypatch.setattr(noise, "_WORKER", executor)
            steps = iter(noise.NoiseChunks(spec, self.T, 37, 41))
            for _ in range(12):
                next(steps)
            with pytest.raises(ArithmeticError, match="^no scale at step 13$"):
                next(steps)
            monkeypatch.undo()

    @pytest.mark.parametrize("failing", [0, 3, 7])
    def test_a_raising_transform_propagates_and_stops_every_part(self, failing, monkeypatch):
        # one part's transform fails while the others are slow, on whichever thread runs it:
        # the error reaches the caller as it is, and no part is still running after it
        import time

        from consensuslab import noise

        transform = noise._transform
        started = []

        def transform_or_fail(spec, u):
            started.append(u)
            if len(started) == failing + 1:
                raise FloatingPointError(f"part {failing} failed")
            time.sleep(0.01)
            return transform(spec, u)

        spec = self._worker_noise(3, "gaussian_dense")
        for executor in (Inline(), Pool(eager=True), Pool(eager=False)):
            started.clear()
            monkeypatch.setattr(noise, "_transform", transform_or_fail)
            monkeypatch.setattr(noise, "_WORKER", executor)
            with pytest.raises(FloatingPointError, match=f"^part {failing} failed$"):
                next(iter(noise.NoiseChunks(spec, self.T, 37, 41)))
            monkeypatch.undo()
            if isinstance(executor, Pool):
                assert len(executor.futures) == noise.TRANSFORM_PARTS
                assert all(f.done() for f in executor.futures)

    @pytest.mark.parametrize("failing", ["draw", "transform"])
    def test_an_error_in_the_chunk_ahead_waits_for_its_first_step(self, failing, monkeypatch):
        # 4-step chunks: the third chunk (steps 9..12) is handed to the worker when the engine
        # takes step 5; an error in a part's draw or transform, on whichever thread runs it, is
        # held until step 9, as if the chunk had started there
        from consensuslab import noise

        draw, transform, calls = noise._draw, noise._transform, []

        def draw_or_fail(spec, stream, out):
            if failing == "draw":
                calls.append(out)
                if len(calls) == 2 * 4 + 1:  # each step drawn once
                    raise MemoryError("no draw at step 9")
            draw(spec, stream, out)

        def transform_or_fail(spec, u):
            if failing == "transform":
                calls.append(u)
                if len(calls) == 2 * 4 + 1:  # a one-step part a step
                    raise FloatingPointError("no transform at step 9")
            return transform(spec, u)

        error = {"draw": MemoryError, "transform": FloatingPointError}[failing]
        spec = self._worker_noise(2, "gaussian_diagonal")
        for executor in (None, Inline(), Pool(eager=True)):
            calls.clear()
            self._force(monkeypatch, 37, 2, 4)
            monkeypatch.setattr(noise, "_draw", draw_or_fail)
            monkeypatch.setattr(noise, "_transform", transform_or_fail)
            if executor is not None:
                monkeypatch.setattr(noise, "_WORKER", executor)
            chunks = noise.NoiseChunks(spec, self.T, 37, 41)
            assert chunks.chunk_steps == 4
            steps = iter(chunks)
            for _ in range(8):
                next(steps)
            with pytest.raises(error, match="^no .* at step 9$"):
                next(steps)
            monkeypatch.undo()

    @pytest.mark.parametrize("how", ["close", "schedule_error"])
    def test_an_early_end_stops_every_part_of_the_chunk_ahead(self, how, monkeypatch):
        # at step 5 the third chunk's parts are with a slow worker; closing the steps, or a
        # schedule error that ends the engine's pass mid-chunk, leaves none of them running
        import time

        from consensuslab import noise

        transform = noise._transform

        def slow_transform(spec, u):
            time.sleep(0.01)
            return transform(spec, u)

        n, m = 2, 37
        spec = self._worker_noise(n, "gaussian_diagonal")
        executor = Pool(eager=False)
        self._force(monkeypatch, m, n, 4)
        monkeypatch.setattr(noise, "_transform", slow_transform)
        monkeypatch.setattr(noise, "_WORKER", executor)
        if how == "close":
            steps = iter(noise.NoiseChunks(spec, self.T, m, 41))
            for _ in range(5):
                next(steps)
            assert len(executor.futures) == 3 * 4  # a one-step part a step
            assert not all(f.done() for f in executor.futures)
            steps.close()
        else:
            def rates(t):
                if t == 5:
                    raise ScheduleError(t, "no rates at step 5")
                return [0.4, 0.3]

            model = _contract_model("noisy", n, spec)
            # the error's traceback keeps the engine's frame, and with it the steps, alive
            with pytest.raises(ScheduleError) as raised:
                simulate_ensemble(replace(model, schedule_E=rates), self.T, m, master_seed=8)
            assert len(executor.futures) == 3 * 4
            assert raised.value.t == 5
        assert all(f.done() for f in executor.futures)

    @pytest.mark.parametrize("m", [1, 9, 37])
    @pytest.mark.parametrize("kind", ["gaussian_diagonal", "gaussian_dense", "rademacher", "cauchy", "time_scale"])
    def test_lookahead_chunks_change_no_byte(self, kind, m, monkeypatch):
        # every chunk is handed to the worker while the engine steps the one before, the two
        # in buffers of half the budget; whether the worker draws every part, none or races
        # the stepping thread, each run's steps are the reference's
        from consensuslab import noise

        n = 5
        spec = self._worker_noise(n, kind)
        assert (spec.time_scale is not None) == (kind == "time_scale")
        passes = []
        for k in (1, 3, None):
            for executor in (None, Inline(), Pool(eager=True), Pool(eager=False)):
                self._force(monkeypatch, m, n, k)
                if executor is not None:
                    monkeypatch.setattr(noise, "_WORKER", executor)
                chunks = noise.NoiseChunks(spec, self.T, m, 41)
                assert chunks.chunk_steps == (self.T if k is None else k)
                passes.append(self._run_rows(chunks))
                monkeypatch.undo()
                assert chunks.transform_parts == self._parts(chunks)
                if isinstance(executor, Pool) and executor.eager:  # every part ran on the worker
                    assert len(executor.futures) == chunks.transform_parts
                    assert not any(f.cancelled() for f in executor.futures)
                # the chunk stepped and the one ahead, each at most half the forced budget, and the stage
                chunk = 8 * chunks.width * chunks.chunk_steps * n * chunks._copies
                ahead = 0 if k is None else chunk
                assert chunks.buffer_bytes_peak == chunk + ahead + 8 * n * chunks.width
        assert all(np.array_equal(rows, passes[0]) for rows in passes)
        self._expect_reference(passes[0], spec, m)

    @pytest.mark.parametrize("kind", ["gaussian_diagonal", "gaussian_dense", "rademacher", "cauchy", "time_scale"])
    @staticmethod
    def _threads(monkeypatch) -> dict:
        """Record the thread of every ``_draw`` (and its generator) and every ``_transform`` call."""
        import threading

        from consensuslab import noise

        draw, transform, seen = noise._draw, noise._transform, {"draw": [], "stream": [], "transform": []}

        def traced_draw(spec, stream, out):
            seen["draw"].append(threading.get_ident())
            seen["stream"].append(stream)
            draw(spec, stream, out)

        def traced_transform(spec, u):
            seen["transform"].append(threading.get_ident())
            return transform(spec, u)

        monkeypatch.setattr(noise, "_draw", traced_draw)
        monkeypatch.setattr(noise, "_transform", traced_transform)
        return seen

    @pytest.mark.parametrize("kind", ["gaussian_diagonal", "gaussian_dense", "rademacher", "cauchy", "time_scale"])
    def test_every_random_chunk_goes_to_the_worker(self, kind, monkeypatch):
        # every random chunk goes one ahead, its parts to the worker, even where a run's whole
        # horizon is one chunk, whatever the noise class: the worker draws and transforms
        # every part, and the stepping thread draws nothing
        import threading

        from consensuslab import noise

        n, m = 2, 37
        spec = self._worker_noise(n, kind)
        for k in (4, None):  # several chunks, and the whole horizon in one
            executor = Pool(eager=True)
            self._force(monkeypatch, m, n, k)
            monkeypatch.setattr(noise, "_WORKER", executor)
            seen = self._threads(monkeypatch)
            chunks = noise.NoiseChunks(spec, self.T, m, 41)
            rows = self._run_rows(chunks)
            monkeypatch.undo()
            self._expect_reference(rows, spec, m)
            assert chunks.chunk_steps == (self.T if k is None else k)
            assert chunks.transform_parts == self._parts(chunks)
            # every part ran on the worker, none was taken back
            assert len(executor.futures) == chunks.transform_parts
            assert not any(f.cancelled() for f in executor.futures)
            assert len(seen["draw"]) == self.T and len(seen["transform"]) == chunks.transform_parts
            assert threading.get_ident() not in seen["draw"] + seen["transform"]
            assert all(stream is chunks._worker[0] for stream in seen["stream"])
            assert chunks.fill_s == 0.0 and chunks.philox_calls == self.T

    @pytest.mark.parametrize("kind", ["gaussian_diagonal", "gaussian_dense", "rademacher", "cauchy", "time_scale"])
    def test_parts_taken_back_give_the_worker_s_bytes(self, kind, monkeypatch):
        # an executor that never starts a part: the stepping thread takes every part back and
        # draws and transforms it with its own generator, and every byte is the worker's
        import threading

        from consensuslab import noise

        n, m = 3, 37
        spec = self._worker_noise(n, kind)
        for k in (4, None):
            passes = []
            for executor in (Pool(eager=True), Inline()):
                self._force(monkeypatch, m, n, k)
                monkeypatch.setattr(noise, "_WORKER", executor)
                seen = self._threads(monkeypatch)
                chunks = noise.NoiseChunks(spec, self.T, m, 41)
                passes.append(self._run_rows(chunks))
                monkeypatch.undo()
            assert len(seen["draw"]) == self.T and len(seen["transform"]) == chunks.transform_parts
            assert set(seen["draw"] + seen["transform"]) == {threading.get_ident()}
            assert all(stream is chunks._mine[0] for stream in seen["stream"])
            assert chunks.fill_s > 0.0 and chunks.philox_calls == self.T
            assert np.array_equal(passes[1], passes[0]), k
            self._expect_reference(passes[1], spec, m)

    def test_a_short_table_raises_at_the_first_step_of_its_chunk_ahead(self, monkeypatch):
        # 4-step chunks of a 10-row table: chunk 9..12 runs past the table, and its rows are
        # computed, and raise, only when the engine reaches step 9
        from consensuslab import noise

        rows, computed = noise._rows, []
        monkeypatch.setattr(noise, "_rows", lambda spec, ts, stream: computed.append(ts[0]) or rows(spec, ts, stream))
        table = np.arange(20.0).reshape(10, 2)
        spec = NoiseSpec.custom(table)
        monkeypatch.setattr(noise, "CHUNK_VALUES", 2 * 4 * 2)  # deterministic rows are one column, shared
        chunks = noise.NoiseChunks(spec, self.T, 3, 41)
        assert chunks.chunk_steps == 4
        steps = iter(chunks)
        for t in range(1, 9):
            assert np.array_equal(next(steps), table[t - 1][:, None]), t
        assert computed == [1, 5]
        with pytest.raises(TableExhaustedError, match="asked for t=12$") as raised:
            next(steps)
        assert raised.value.t == 12 and computed == [1, 5, 9]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_process_transforms_every_part_itself(self):
        # a process forked after the worker started has no worker thread: nothing starts the
        # parts it submits, so its filling thread takes each one back
        import signal

        from consensuslab import noise

        spec = self._worker_noise(3, "time_scale")
        rows = self._run_rows(noise.NoiseChunks(spec, self.T, 37, 41))  # the worker thread exists from here on
        pid = os.fork()
        if pid == 0:
            signal.alarm(60)
            forked = self._run_rows(noise.NoiseChunks(spec, self.T, 37, 41))
            os._exit(0 if np.array_equal(forked, rows) else 1)
        assert os.waitpid(pid, 0)[1] == 0

    def test_terminal_state_ignores_the_blas_thread_count(self):
        # OpenBLAS splits a wide product's columns between threads; with the padded width
        # every run's column still rounds as it does on one thread, and so does a dense
        # noise factor's product of eight runs at these n (at n = 100 OpenBLAS splits that
        # product too). The last two geometries are forced into chunks of 4 and 1 steps,
        # each chunk one of two in the budget.
        import subprocess
        import sys
        from pathlib import Path

        import consensuslab

        script = (
            "import hashlib, numpy as np\n"
            "from consensuslab import ModelSpec, NoiseSpec, noise as nz, simulate_ensemble\n"
            "for n, m, chunk, dense in ((16, 7, None, False), (100, 500, None, False), (16, 500, None, True),\n"
            "                           (2, 4000, 2 * 4 * 2 * 4000, True), (16, 37, 2 * 16 * 40, False)):\n"
            "    if chunk:\n"
            "        nz.CHUNK_VALUES = chunk\n"
            "    rng = np.random.default_rng(4)\n"
            "    a = rng.uniform(0.1, 1.0, size=(n, n)) + 2.0 * np.eye(n)\n"
            "    a /= a.sum(axis=1, keepdims=True)\n"
            "    g = rng.normal(size=(n, n))\n"
            "    noise = NoiseSpec.gaussian(np.zeros(n), g @ g.T + np.eye(n) if dense else np.eye(n))\n"
            "    spec = ModelSpec.average(a, 0.5 * np.diagonal(a), noise, np.zeros(n))\n"
            "    ens = simulate_ensemble(spec, 8, m, master_seed=11)\n"
            "    print(ens.engine['chunk_steps'], hashlib.sha256(ens.terminal_states.tobytes()).hexdigest())\n"
        )
        src = str(Path(consensuslab.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout)
        assert digests[0] == digests[1]
        assert [line.split()[0] for line in digests[0].splitlines()] == ["8", "5", "8", "4", "1"]


def test_many_runs_memory_is_the_results_and_five_blocks_of_states():
    # many_runs' shape: the traced peak is the terminal block, the one earlier snapshot and
    # at most five more blocks of every run's states (the state block, its spare, the stage
    # and two step temporaries). The noise chunks live in their own mappings, which
    # noise_buffer_bytes_peak bounds
    import tracemalloc

    n, m, T = 2, 50_000, 20
    a = np.array([[0.7, 0.3], [0.4, 0.6]])
    spec = ModelSpec.noisy(a, [0.5, 0.4], 1.0, NoiseSpec.gaussian(np.zeros(n), np.eye(n)), np.zeros(n))
    simulate_ensemble(spec, T, 10, master_seed=401, snapshot_times=[10, T])  # first-call allocations
    tracemalloc.start()
    try:
        ens = simulate_ensemble(spec, T, m, master_seed=401, snapshot_times=[10, T])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 8 * m * n
    assert peak < (2 + 5) * block, peak
    assert ens.engine["noise_buffer_bytes_peak"] == 4_000_000


@pytest.mark.parametrize("chunk_steps", [None, 7])
def test_noise_memory_is_bounded_by_a_chunk(chunk_steps, monkeypatch):
    # a whole-horizon noise block would take 8*T*n*m bytes (64 MB here); the pass holds the
    # chunk it steps and the one the worker transforms ahead of it, whatever their size
    import tracemalloc

    from consensuslab import noise

    n, m, T = 20, 200, 2000
    if chunk_steps is not None:
        monkeypatch.setattr(noise, "CHUNK_VALUES", 2 * chunk_steps * n * m)
    a = 0.5 * np.eye(n) + 0.5 / n
    spec = ModelSpec.average(a, np.full(n, 0.3), NoiseSpec.gaussian(np.zeros(n), np.eye(n)), np.zeros(n))
    tracemalloc.start()
    try:
        ens = simulate_ensemble(spec, T, m, master_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.engine["chunk_steps"] == (65 if chunk_steps is None else chunk_steps)
    assert peak < 8 * T * n * m / 4
    assert ens.engine["noise_buffer_bytes_peak"] <= 8 * noise.CHUNK_VALUES + 8 * n * m


def test_a_varying_rate_schedule_is_queried_once_a_step():
    # 20000 runs of epsilon-oscillator's oscillating rates take 13-step chunks of 40 steps;
    # the one pass over every run queries the schedule once a step
    from consensuslab import load_catalog_scenario

    s = load_catalog_scenario("epsilon-oscillator")
    rate, queried = s.model.schedule_E, []

    def counted(t):
        queried.append(t)
        return rate(t)

    ens = simulate_ensemble(replace(s.model, schedule_E=counted), 40, 20_000, s.master_seed)
    assert queried == list(range(1, 41)) and ens.engine["chunk_steps"] == 13
