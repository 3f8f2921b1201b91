import math
import os
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import replace

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
    its noise or on whether it stages it step-major; chunk sizes are forced
    through ``noise.CHUNK_VALUES`` and the stage through ``noise.STAGE_VALUES``.
    """

    # one step past a multiple of 8, so 4- and 8-step chunking ends on a one-step chunk; at
    # n = 5 a plain chunk-sized ``z @ F.T`` rounds that row unlike the whole-horizon product
    T = 25
    WIDTHS = (1, 2, 3, 7, 9)
    REFERENCE_WIDTH = 16

    @staticmethod
    def _force(monkeypatch, m, n, k=None, staged=None):
        from consensuslab import noise

        w = noise.padded_width(m)
        if k is not None:
            monkeypatch.setattr(noise, "CHUNK_VALUES", k * w * n)
        if staged is not None:
            monkeypatch.setattr(noise, "STAGE_VALUES", 4 * n * w - (0 if staged else 1))

    @staticmethod
    def _chunk_sizes(spec):
        """Chunk sizes the alignment allows: ``k * n`` a multiple of 4, ``k`` too for a dense factor."""
        dense = spec._factor is not None and spec._factor.ndim == 2
        align = 4 if dense else 4 // math.gcd(spec.n, 4)
        return (align, 3 * align, None)  # None: the default, the whole horizon here

    @pytest.mark.parametrize("staged", [True, False])
    @pytest.mark.parametrize("n", [2, 4, 5])
    @pytest.mark.parametrize("kind", [k for k in _contract_noise() if k != "gaussian_identity"])
    def test_engine_noise_rows_are_the_run_substream_block(self, kind, n, staged, monkeypatch):
        from consensuslab.noise import NoiseChunks, padded_width, sample_noise_block, substream

        spec = _contract_noise(n)[kind]
        blocks = [sample_noise_block(spec, self.T, substream(41, r)) for r in range(max(self.WIDTHS))]
        for m in self.WIDTHS:
            for k in self._chunk_sizes(spec):
                self._force(monkeypatch, m, n, k, staged)
                chunks = NoiseChunks(spec, self.T, m, 41)
                assert chunks.chunk_steps == (self.T if k is None else k)
                assert (chunks._stage is not None) == staged
                rows = np.stack([g.T.copy() for g in chunks])  # (T, padded width, n)
                assert rows.shape == (self.T, padded_width(m), n)
                for r in range(m):
                    assert np.array_equal(rows[:, r], blocks[r]), (m, k, r)
                assert not rows[:, m:].any()  # the pad runs get zero noise
                assert chunks.uniforms_drawn == self.T * n * m
                monkeypatch.undo()

    @pytest.mark.parametrize(
        "kind, n, forced, expected",
        [
            ("rademacher", 2, 2, 2),
            ("rademacher", 2, 3, 2),
            ("rademacher", 2, 6, 6),
            ("gaussian_diagonal", 4, 1, 1),
            ("cauchy", 4, 3, 3),
            ("cauchy", 5, 3, 4),
            ("cauchy", 5, 6, 4),
            ("gaussian_dense", 2, 2, 4),
            ("gaussian_dense", 2, 6, 4),
            ("gaussian_dense", 4, 1, 4),
        ],
    )
    def test_chunks_start_on_whole_philox_blocks(self, kind, n, forced, expected, monkeypatch):
        # k * n must be a multiple of 4 (four doubles per Philox counter value), and k itself
        # a multiple of 4 for a dense covariance factor, whose products group 4 steps
        from consensuslab.noise import NoiseChunks

        self._force(monkeypatch, 3, n, forced)
        chunks = NoiseChunks(_contract_noise(n)[kind], self.T, 3, 41)
        assert chunks.chunk_steps == expected and type(chunks.chunk_steps) is int

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
        for k in self._chunk_sizes(spec.noise):
            for staged in (True, False):
                self._force(monkeypatch, 9, n, k, staged)
                ens = simulate_ensemble(spec, self.T, 9, master_seed=8)
                monkeypatch.undo()
                assert np.array_equal(ens.terminal_states, reference[:9]), (k, staged)

    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("family", list(_FAMILY_NOISE))
    def test_the_engine_steps_as_the_public_step_functions_do(self, family, n):
        # the engine writes each step's product into a block it keeps, the public steps into a
        # new array; on the engine's block of runs and pad columns they give the same bytes
        from consensuslab.noise import padded_width, sample_noise_block, substream

        kind = _FAMILY_NOISE[family]
        spec = _contract_model(family, n, None if kind is None else _contract_noise(n)[kind])
        m = 5
        W = padded_width(m)
        noise = np.zeros((self.T, n, W))
        for r in range(m if kind is not None else 0):
            noise[:, :, r] = sample_noise_block(spec.noise, self.T, substream(8, r))
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

    @staticmethod
    def _force_tiles(monkeypatch, n, tile):
        """Tile the runs whenever a run takes more than one chunk, ``tile`` runs to a tile."""
        from consensuslab import noise

        whole = -(-TestReproducibilityContract.T // 4) * 4  # the horizon in whole Philox blocks at any n
        monkeypatch.setattr(noise, "CHUNK_VALUES", tile * n * whole)
        monkeypatch.setattr(noise, "STEP_CALLS", 0)

    @pytest.mark.parametrize("staged", [True, False])
    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("kind", [k for k in _contract_noise() if k != "gaussian_identity"])
    def test_tiled_noise_rows_are_the_run_substream_block(self, kind, n, staged, monkeypatch):
        from consensuslab.noise import NoiseChunks, sample_noise_block, substream

        spec = _contract_noise(n)[kind]
        m = 37
        blocks = [sample_noise_block(spec, self.T, substream(41, r)) for r in range(m)]
        for tile in (8, 16):
            self._force_tiles(monkeypatch, n, tile)
            self._force(monkeypatch, tile, n, staged=staged)
            chunks = NoiseChunks(spec, self.T, m, 41)
            assert (chunks.tiles, chunks.width, chunks.chunk_steps) == (-(-m // tile), tile, self.T)
            assert (chunks._stage is not None) == staged
            rows = np.stack([g.T.copy() for g in chunks])  # (tiles * T, tile, n): each tile's steps in turn
            rows = rows.reshape(chunks.tiles, self.T, tile, n).transpose(0, 2, 1, 3).reshape(-1, self.T, n)
            for r in range(m):
                assert np.array_equal(rows[r], blocks[r]), (tile, r)
            assert not rows[m:].any()  # the last tile's pad runs get zero noise
            assert chunks.uniforms_drawn == self.T * n * m and chunks.philox_calls == m
            monkeypatch.undo()

    @pytest.mark.parametrize("n", [1, 2, 16])
    @pytest.mark.parametrize("family", list(_FAMILY_NOISE))
    def test_tiles_reproduce_the_one_tile_pass(self, family, n, monkeypatch):
        kind = _FAMILY_NOISE[family]
        spec = _contract_model(family, n, None if kind is None else _contract_noise(n)[kind])
        times = (0, 7, 12, self.T)
        for m in self.WIDTHS + (37,):
            ref = simulate_ensemble(spec, self.T, m, master_seed=8, snapshot_times=times)
            assert ref.engine["tiles"] == 1
            for tile in (8, 16):
                self._force_tiles(monkeypatch, n, tile)
                ens = simulate_ensemble(spec, self.T, m, master_seed=8, snapshot_times=times)
                monkeypatch.undo()
                tiles = 1 if kind is None or m <= tile else -(-m // tile)
                assert ens.engine["tiles"] == tiles, (m, tile)
                assert np.array_equal(ens.terminal_states, ref.terminal_states), (m, tile)
                for name in ("states", "err_inf", "osc", "rho"):
                    assert np.array_equal(getattr(ens.run0, name), getattr(ref.run0, name), equal_nan=True), name
                assert list(ens.snapshots) == list(ref.snapshots)
                for t in times:
                    assert np.array_equal(ens.snapshots[t], ref.snapshots[t]), (m, tile, t)

    @pytest.mark.parametrize("tile", [None, 8])
    def test_error_tracking_takes_the_untracked_tiles(self, tile, monkeypatch):
        # each tile adds its runs' sup errors into the step's sum, divided by m after the last
        # tile: in one tile that is the mean of every run's error bit for bit, and in more
        # tiles the same sum taken in another order
        spec = _contract_model("noisy", 2, _contract_noise(2)["gaussian_diagonal"])
        times = range(self.T + 1)
        if tile is not None:
            self._force_tiles(monkeypatch, 2, tile)
        ref = simulate_ensemble(spec, self.T, 37, master_seed=8, snapshot_times=times)
        tracked = simulate_ensemble(spec, self.T, 37, master_seed=8, snapshot_times=times, track_mean_err=True)
        assert tracked.engine == ref.engine and ref.engine["tiles"] == (1 if tile is None else 5)
        assert np.array_equal(tracked.terminal_states, ref.terminal_states)
        for t in times:
            assert np.array_equal(tracked.snapshots[t], ref.snapshots[t]), t
        mean = np.array([np.abs(ref.snapshots[t] - spec.sigma_bar).max(axis=1).mean() for t in times])
        if tile is None:
            assert np.array_equal(tracked.mean_err_inf, mean)
        else:
            np.testing.assert_allclose(tracked.mean_err_inf, mean, rtol=4e-15, atol=0)

    @staticmethod
    def _overlap_every_chunk(monkeypatch):
        """Hand every random chunk's transform to the worker, whatever its kind and draw."""
        from consensuslab import noise

        monkeypatch.setattr(noise, "_overlaps", lambda spec, draw: True)

    class _Inline:
        """An executor whose tasks never start, so the filling thread takes every part back."""

        def submit(self, fn, *args):
            return Future()

    class _Pool:
        """A one-thread executor that keeps its futures; ``eager``, it finishes each part before the next fill."""

        def __init__(self, eager: bool):
            self.pool, self.eager, self.futures = ThreadPoolExecutor(1), eager, []

        def submit(self, fn, *args):
            self.futures.append(self.pool.submit(fn, *args))
            if self.eager:
                wait(self.futures[-1:])
            return self.futures[-1]

    @staticmethod
    def _worker_noise(n: int, kind: str) -> NoiseSpec:
        """The contract's noise of ``kind`` without its time_scale; ``time_scale`` is the dense Gaussian with it."""
        spec = _contract_noise(n)["gaussian_dense" if kind == "time_scale" else kind]
        return spec if kind == "time_scale" else replace(spec, time_scale=None)

    @pytest.mark.parametrize("staged", [True, False])
    @pytest.mark.parametrize("kind", ["gaussian_diagonal", "gaussian_dense", "rademacher", "cauchy", "time_scale"])
    def test_worker_transform_changes_no_byte(self, kind, staged, monkeypatch):
        # the worker transforms each part of a chunk while the next is filled; every part on
        # the filling thread, every part on the worker, or the default race between the two
        # must give the same bytes: the run's own substream block
        from consensuslab import noise

        n, m = 5, 37
        spec = self._worker_noise(n, kind)
        assert (spec.time_scale is not None) == (kind == "time_scale")
        blocks = [noise.sample_noise_block(spec, self.T, noise.substream(41, r)) for r in range(m)]
        for k in self._chunk_sizes(spec):
            for executor in (None, self._Inline(), self._Pool(eager=True)):
                self._force(monkeypatch, m, n, k, staged)
                self._overlap_every_chunk(monkeypatch)
                if executor is not None:
                    monkeypatch.setattr(noise, "_WORKER", executor)
                chunks = noise.NoiseChunks(spec, self.T, m, 41)
                assert (chunks._stage is not None) == staged
                rows = np.stack([g.T.copy() for g in chunks])
                for r in range(m):
                    assert np.array_equal(rows[:, r], blocks[r]), (k, executor, r)
                assert not rows[:, m:].any()
                parts = -(-self.T // chunks.chunk_steps) * noise.TRANSFORM_PARTS
                assert chunks.transform_parts == parts
                if isinstance(executor, self._Pool):  # every part went to the worker and ran there
                    assert len(executor.futures) == parts and not any(f.cancelled() for f in executor.futures)
                monkeypatch.undo()

    def test_time_scale_is_evaluated_once_per_step(self, monkeypatch):
        from consensuslab import noise

        calls = []
        spec = NoiseSpec.cauchy(2, scale=0.7, time_scale=lambda t: calls.append(t) or 1.0 / t)
        self._force(monkeypatch, 37, 2, 4)
        self._overlap_every_chunk(monkeypatch)
        chunks = noise.NoiseChunks(spec, self.T, 37, 41)
        list(chunks)
        # 13 chunks of up to 2 steps: a chunk the worker takes is one of two in the forced budget
        assert chunks.transform_parts == 13 * noise.TRANSFORM_PARTS
        assert calls == list(range(1, self.T + 1))

    def test_a_raising_time_scale_propagates(self, monkeypatch):
        from consensuslab import noise

        def scale(t):
            if t == 13:
                raise ArithmeticError(f"no scale at step {t}")
            return 1.0 / t

        spec = NoiseSpec.gaussian(np.zeros(2), np.eye(2), time_scale=scale)
        with pytest.raises(ArithmeticError, match="^no scale at step 13$"):
            noise.sample_noise_block(spec, self.T, noise.substream(41, 0))
        for executor in (None, self._Inline(), self._Pool(eager=True)):
            self._force(monkeypatch, 37, 2, 4)
            self._overlap_every_chunk(monkeypatch)
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

        def transform_or_fail(spec, u, scales):
            started.append(u)
            if len(started) == failing + 1:
                raise FloatingPointError(f"part {failing} failed")
            time.sleep(0.01)
            return transform(spec, u, scales)

        spec = self._worker_noise(3, "gaussian_dense")
        for executor in (self._Inline(), self._Pool(eager=True), self._Pool(eager=False)):
            started.clear()
            monkeypatch.setattr(noise, "_transform", transform_or_fail)
            monkeypatch.setattr(noise, "_WORKER", executor)
            self._overlap_every_chunk(monkeypatch)
            with pytest.raises(FloatingPointError, match=f"^part {failing} failed$"):
                next(iter(noise.NoiseChunks(spec, self.T, 37, 41)))
            monkeypatch.undo()
            if isinstance(executor, self._Pool):
                assert len(executor.futures) == noise.TRANSFORM_PARTS
                assert all(f.done() for f in executor.futures)

    @pytest.mark.parametrize("failing", ["fill", "transform"])
    def test_an_error_in_the_chunk_ahead_waits_for_its_first_step(self, failing, monkeypatch):
        # 4-step chunks: the third chunk (steps 9..12) is filled and handed to the worker when
        # the engine takes step 5; an error in its fill or in a part's transform is held until
        # step 9, as if the chunk had started there
        from consensuslab import noise

        fill, transform, calls = noise.NoiseChunks._fill, noise._transform, []

        def fill_or_fail(chunks, block, keys, c0):
            if failing == "fill" and c0 == 8:
                raise MemoryError("no fill at step 9")
            fill(chunks, block, keys, c0)

        def transform_or_fail(spec, u, scales):
            calls.append(u)
            if failing == "transform" and len(calls) == 2 * noise.TRANSFORM_PARTS + 1:
                raise FloatingPointError("no transform at step 9")
            return transform(spec, u, scales)

        error = {"fill": MemoryError, "transform": FloatingPointError}[failing]
        spec = self._worker_noise(2, "gaussian_diagonal")
        for executor in (None, self._Inline(), self._Pool(eager=True)):
            calls.clear()
            self._force(monkeypatch, 37, 2, 2 * 4)
            self._overlap_every_chunk(monkeypatch)
            monkeypatch.setattr(noise.NoiseChunks, "_fill", fill_or_fail)
            monkeypatch.setattr(noise, "_transform", transform_or_fail)
            if executor is not None:
                monkeypatch.setattr(noise, "_WORKER", executor)
            chunks = noise.NoiseChunks(spec, self.T, 37, 41)
            assert chunks._lookahead and chunks.chunk_steps == 4
            steps = iter(chunks)
            for _ in range(8):
                next(steps)
            with pytest.raises(error, match="^no .* at step 9$"):
                next(steps)
            monkeypatch.undo()

    @pytest.mark.parametrize("how", ["close", "schedule_error"])
    def test_an_early_end_stops_every_part_of_the_chunk_ahead(self, how, monkeypatch):
        # at step 5 the third chunk's parts are with a slow worker; closing the steps, or a
        # schedule error that ends the engine's pass mid-tile, leaves none of them running
        import time

        from consensuslab import noise

        transform = noise._transform

        def slow_transform(spec, u, scales):
            time.sleep(0.01)
            return transform(spec, u, scales)

        n, m = 2, 37
        spec = self._worker_noise(n, "gaussian_diagonal")
        executor = self._Pool(eager=False)
        self._force(monkeypatch, m, n, 2 * 4)
        self._overlap_every_chunk(monkeypatch)
        monkeypatch.setattr(noise, "_transform", slow_transform)
        monkeypatch.setattr(noise, "_WORKER", executor)
        if how == "close":
            steps = iter(noise.NoiseChunks(spec, self.T, m, 41))
            for _ in range(5):
                next(steps)
            assert len(executor.futures) == 3 * noise.TRANSFORM_PARTS
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
            assert len(executor.futures) == 3 * noise.TRANSFORM_PARTS
            assert raised.value.t == 5
        assert all(f.done() for f in executor.futures)

    @pytest.mark.parametrize("staged", [True, False])
    @pytest.mark.parametrize("kind", ["gaussian_diagonal", "gaussian_dense", "time_scale"])
    def test_lookahead_chunks_change_no_byte(self, kind, staged, monkeypatch):
        # a Gaussian chunk the worker takes is filled and handed over while the engine steps
        # the one before, the two in buffers of half the budget; whether the worker runs every
        # part, none or races the filling thread, each run's steps are its substream block
        from consensuslab import noise

        n, m = 5, 37
        spec = self._worker_noise(n, kind)
        blocks = [noise.sample_noise_block(spec, self.T, noise.substream(41, r)) for r in range(m)]
        for k in self._chunk_sizes(spec):
            for executor in (None, self._Inline(), self._Pool(eager=True), self._Pool(eager=False)):
                self._force(monkeypatch, m, n, None if k is None else 2 * k, staged)
                monkeypatch.setattr(noise, "OVERLAP_MIN_DRAW", 1)
                if executor is not None:
                    monkeypatch.setattr(noise, "_WORKER", executor)
                chunks = noise.NoiseChunks(spec, self.T, m, 41)
                assert chunks._lookahead and (chunks._stage is not None) == staged
                assert chunks.chunk_steps == (self.T if k is None else k)
                rows = np.stack([g.T.copy() for g in chunks])
                monkeypatch.undo()
                for r in range(m):
                    assert np.array_equal(rows[:, r], blocks[r]), (k, executor, r)
                assert not rows[:, m:].any()
                assert chunks.transform_parts == -(-self.T // chunks.chunk_steps) * noise.TRANSFORM_PARTS
                # the chunk stepped and the one ahead, each at most half the forced budget
                chunk = 8 * chunks.width * chunks.chunk_steps * n * chunks._copies
                ahead = 0 if k is None else chunk
                stage = 0 if chunks._stage is None else chunks._stage.nbytes
                assert chunks.buffer_bytes_peak == chunk + ahead + stage

    @pytest.mark.parametrize("kind", ["gaussian_diagonal", "gaussian_dense", "rademacher", "cauchy"])
    def test_the_worker_takes_only_long_gaussian_draws(self, kind, monkeypatch):
        # a chunk goes one ahead, its parts to the worker, when its noise is Gaussian and each
        # run's horizon draws at least OVERLAP_MIN_DRAW uniforms; any other is transformed in
        # the same parts on the filling thread
        from consensuslab import noise

        n, m = 2, 37
        spec = self._worker_noise(n, kind)
        for T in (noise.OVERLAP_MIN_DRAW // n - 4, noise.OVERLAP_MIN_DRAW // n):
            blocks = [noise.sample_noise_block(spec, T, noise.substream(41, r)) for r in range(m)]
            executor = self._Pool(eager=False)
            monkeypatch.setattr(noise, "_WORKER", executor)
            chunks = noise.NoiseChunks(spec, T, m, 41)
            rows = np.stack([g.T.copy() for g in chunks])
            monkeypatch.undo()
            assert all(np.array_equal(rows[:, r], blocks[r]) for r in range(m)), T
            overlap = kind.startswith("gaussian") and T * n >= noise.OVERLAP_MIN_DRAW
            assert chunks._lookahead == overlap and chunks.chunk_steps == T
            assert chunks.transform_parts == noise.TRANSFORM_PARTS, T
            assert len(executor.futures) == (noise.TRANSFORM_PARTS if overlap else 0), T

    @classmethod
    def _force_narrow(cls, monkeypatch, spec, tile) -> int:
        """Make each run draw just over 8 steps a chunk for the worker; return the chunk steps that takes.

        A chunk of ``tile`` runs holds exactly those steps in half the budget,
        as each of a worker chunk's two buffers does, and a whole horizon fits
        no tile of 8 runs, so only the Gaussian rule narrows the tiles.
        """
        from consensuslab import noise

        align = cls._chunk_sizes(spec)[0]
        k = -(-9 // align) * align
        monkeypatch.setattr(noise, "OVERLAP_MIN_DRAW", 8 * spec.n + 1)
        monkeypatch.setattr(noise, "CHUNK_VALUES", 2 * k * spec.n * tile)
        return k

    @pytest.mark.parametrize("staged", [True, False])
    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("kind", ["gaussian_diagonal", "gaussian_dense", "time_scale"])
    def test_narrowed_gaussian_tiles_send_every_chunk_to_the_worker(self, kind, n, staged, monkeypatch):
        # long-horizon Gaussian runs are tiled narrow enough that each run draws the worker's
        # minimum per chunk; a dense factor's 12-step chunks of 25 steps leave a one-step
        # chunk, which it multiplies on its own (STEP_GROUP)
        from consensuslab import noise

        m = 37
        spec = self._worker_noise(n, kind)
        blocks = [noise.sample_noise_block(spec, self.T, noise.substream(41, r)) for r in range(m)]
        for tile in (8, 16):
            executor = self._Pool(eager=True)
            k = self._force_narrow(monkeypatch, spec, tile)
            self._force(monkeypatch, tile, n, staged=staged)
            monkeypatch.setattr(noise, "_WORKER", executor)
            chunks = noise.NoiseChunks(spec, self.T, m, 41)
            rows = np.stack([g.T.copy() for g in chunks])  # (tiles * T, tile, n): each tile's steps in turn
            monkeypatch.undo()
            assert (chunks.tiles, chunks.width, chunks.chunk_steps) == (-(-m // tile), tile, k)
            assert (chunks._stage is not None) == staged
            rows = rows.reshape(chunks.tiles, self.T, tile, n).transpose(0, 2, 1, 3).reshape(-1, self.T, n)
            for r in range(m):
                assert np.array_equal(rows[r], blocks[r]), (tile, r)
            assert not rows[m:].any()
            # every chunk of every tile went in parts to the worker and ran there
            parts = -(-self.T // k) * sum(min(noise.TRANSFORM_PARTS, m - lo) for lo in range(0, m, tile))
            assert chunks.transform_parts == parts
            assert len(executor.futures) == parts and not any(f.cancelled() for f in executor.futures)

    @pytest.mark.parametrize("kind", ["rademacher", "cauchy"])
    def test_other_kinds_keep_their_tiles(self, kind, monkeypatch):
        from consensuslab import noise

        spec = self._worker_noise(2, kind)
        self._force_narrow(monkeypatch, spec, 8)
        chunks = noise.NoiseChunks(spec, self.T, 37, 41)
        assert (chunks.tiles, chunks.width, chunks._lookahead) == (1, 40, False)

    @pytest.mark.parametrize("family", ["noisy", "average"])
    def test_narrowed_gaussian_tiles_reproduce_the_one_tile_pass(self, family, monkeypatch):
        n, m, times = 2, 37, (0, 12, self.T)
        spec = _contract_model(family, n, _contract_noise(n)[_FAMILY_NOISE[family]])
        tracking = spec.sigma_bar is not None
        ref = simulate_ensemble(spec, self.T, m, master_seed=8, snapshot_times=times, track_mean_err=tracking)
        self._force_narrow(monkeypatch, spec.noise, 16)
        ens = simulate_ensemble(spec, self.T, m, master_seed=8, snapshot_times=times)
        assert (ref.engine["tiles"], ens.engine["tiles"]) == (1, 3)
        assert np.array_equal(ens.terminal_states, ref.terminal_states)
        assert np.array_equal(ens.run0.states, ref.run0.states)
        for t in times:
            assert np.array_equal(ens.snapshots[t], ref.snapshots[t]), t
        if tracking:  # a tracked pass takes the same tiles; only its error sum rounds in another order
            tracked = simulate_ensemble(spec, self.T, m, master_seed=8, snapshot_times=times, track_mean_err=True)
            assert tracked.engine == ens.engine
            assert np.array_equal(tracked.terminal_states, ref.terminal_states)
            for t in times:
                assert np.array_equal(tracked.snapshots[t], ref.snapshots[t]), t
            np.testing.assert_allclose(tracked.mean_err_inf, ref.mean_err_inf, rtol=4e-15, atol=0)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_process_transforms_every_part_itself(self, monkeypatch):
        # a process forked after the worker started has no worker thread: nothing starts the
        # parts it submits, so its filling thread takes each one back
        import signal

        from consensuslab import noise

        self._overlap_every_chunk(monkeypatch)
        spec = self._worker_noise(3, "time_scale")
        blocks = np.stack([noise.sample_noise_block(spec, self.T, noise.substream(41, r)) for r in range(37)])
        list(noise.NoiseChunks(spec, self.T, 37, 41))  # the worker thread exists from here on
        pid = os.fork()
        if pid == 0:
            signal.alarm(60)
            rows = np.stack([g.T.copy() for g in noise.NoiseChunks(spec, self.T, 37, 41)])
            os._exit(0 if np.array_equal(rows[:, :37].transpose(1, 0, 2), blocks) else 1)
        assert os.waitpid(pid, 0)[1] == 0

    def test_terminal_state_ignores_the_blas_thread_count(self):
        # OpenBLAS splits a wide product's columns between threads; with the padded width
        # every run's column still rounds as it does on one thread. The last two geometries
        # are forced into tiles of 1000 and 8 runs.
        import subprocess
        import sys
        from pathlib import Path

        import consensuslab

        script = (
            "import hashlib, numpy as np\n"
            "from consensuslab import ModelSpec, NoiseSpec, noise as nz, simulate_ensemble\n"
            "for n, m, chunk in ((16, 7, None), (100, 500, None), (2, 4000, 2**14), (16, 37, 8 * 16 * 8)):\n"
            "    if chunk:\n"
            "        nz.CHUNK_VALUES, nz.STEP_CALLS = chunk, 0\n"
            "    a = np.random.default_rng(4).uniform(0.1, 1.0, size=(n, n)) + 2.0 * np.eye(n)\n"
            "    a /= a.sum(axis=1, keepdims=True)\n"
            "    noise = NoiseSpec.gaussian(np.zeros(n), np.eye(n))\n"
            "    spec = ModelSpec.average(a, 0.5 * np.diagonal(a), noise, np.zeros(n))\n"
            "    ens = simulate_ensemble(spec, 8, m, master_seed=11)\n"
            "    print(ens.engine['tiles'], hashlib.sha256(ens.terminal_states.tobytes()).hexdigest())\n"
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
        assert [line.split()[0] for line in digests[0].splitlines()] == ["1", "1", "4", "5"]


@pytest.mark.parametrize("tiled", [False, True])
def test_noise_memory_is_bounded_by_a_chunk(tiled, monkeypatch):
    # a whole-horizon noise block would take 8*T*n*m bytes (64 MB here); tiled, the runs go
    # through in 25 tiles of 8, each tile's whole horizon one chunk in half the budget, the
    # worker transforming the next tile's chunk while the engine steps this one
    import tracemalloc

    from consensuslab import noise

    n, m, T = 20, 200, 2000
    if tiled:
        monkeypatch.setattr(noise, "STEP_CALLS", 0)
    a = 0.5 * np.eye(n) + 0.5 / n
    spec = ModelSpec.average(a, np.full(n, 0.3), NoiseSpec.gaussian(np.zeros(n), np.eye(n)), np.zeros(n))
    tracemalloc.start()
    try:
        ens = simulate_ensemble(spec, T, m, master_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.engine["tiles"] == (25 if tiled else 1)
    assert peak < 8 * T * n * m / 4
    assert ens.engine["noise_buffer_bytes_peak"] <= 8 * 2**20
