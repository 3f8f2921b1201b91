import numpy as np
import pytest
import scipy.stats

from consensuslab import (
    EmpiricalSample,
    InsufficientSampleError,
    ModelSpec,
    NoiseSpec,
    StructureError,
    averaging_map,
    cauchy_cdf,
    clt_target,
    consensus_time,
    detect_periodicity,
    distribution_drift,
    empirical_moments,
    ks_critical_value,
    ks_statistic,
    normal_cdf,
    product_limit,
    rank_one_score,
    scaled_sign_learning,
    simulate,
    wasserstein1_1d,
)
from consensuslab.noise import sample_noise_block, substream


class TestEmpiricalSample:
    def test_shapes(self):
        s = EmpiricalSample(np.arange(6.0).reshape(3, 2), t_final=10)
        assert s.m == 3 and s.n == 2
        flat = EmpiricalSample(np.arange(4.0))
        assert flat.n == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmpiricalSample(np.empty((0, 2)))


class TestMoments:
    def test_degenerate_sample(self):
        mean, cov = empirical_moments(np.tile([2.0, -1.0], (5, 1)))
        assert np.allclose(mean, [2.0, -1.0])
        assert np.allclose(cov, 0.0)

    def test_two_point_sample(self):
        mean, cov = empirical_moments(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert np.allclose(mean, [1.0, 1.0])
        assert np.allclose(cov, [[2.0, 2.0], [2.0, 2.0]])

    def test_recovers_gaussian_moments(self):
        sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        mu = np.array([3.0, -1.0])
        m = 100_000
        pts = sample_noise_block(NoiseSpec.gaussian(mu, sigma), m, substream(21, 0))
        mean, cov = empirical_moments(pts)
        assert np.all(np.abs(mean - mu) < 5 * np.sqrt(np.diagonal(sigma) / m))
        se = np.sqrt((np.outer(np.diagonal(sigma), np.diagonal(sigma)) + sigma**2) / m)
        assert np.all(np.abs(cov - sigma) < 5 * se)

    def test_single_point_rejected(self):
        with pytest.raises(InsufficientSampleError):
            empirical_moments(np.array([[1.0, 2.0]]))


class TestWasserstein:
    def test_identical_samples(self):
        x = np.array([3.0, -1.0, 2.0])
        assert wasserstein1_1d(x, x) == 0.0

    def test_point_masses(self):
        assert wasserstein1_1d([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_order_statistic_matching(self):
        assert wasserstein1_1d([0.0, 1.0], [0.0, 3.0]) == 1.0

    def test_against_scipy_equal_sizes(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a = rng.normal(size=40)
            b = rng.normal(size=40) * 2 + 1
            assert wasserstein1_1d(a, b) == pytest.approx(scipy.stats.wasserstein_distance(a, b), abs=1e-12)

    def test_against_scipy_unequal_sizes(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = rng.normal(size=rng.integers(5, 60))
            b = rng.normal(size=rng.integers(5, 60))
            assert wasserstein1_1d(a, b) == pytest.approx(scipy.stats.wasserstein_distance(a, b), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wasserstein1_1d([], [1.0])


class TestKS:
    def test_sample_from_reference_stays_small(self):
        m = 10_000
        u = substream(4, 0).random(m)
        stat = ks_statistic(u, lambda x: np.clip(x, 0.0, 1.0))
        assert stat < ks_critical_value(m, 0.01)

    def test_single_point_at_median(self):
        assert ks_statistic([0.0], lambda x: np.full_like(np.asarray(x, float), 0.5)) == 0.5

    def test_normal_sample_vs_cauchy_reference(self):
        m = 10_000
        z = sample_noise_block(NoiseSpec.gaussian([0.0], [[1.0]]), m, substream(8, 0)).ravel()
        stat = ks_statistic(z, cauchy_cdf)
        assert stat > 0.04

    def test_critical_values(self):
        assert ks_critical_value(10_000, 0.01) == pytest.approx(0.0163)
        with pytest.raises(ValueError):
            ks_critical_value(100, 0.2)

    @pytest.mark.parametrize("level", [0.005, 0.049, 0.051, 0.1001])
    def test_untabulated_levels_are_refused(self, level):
        # no rounding onto a neighbouring level: 0.005 is not the 1% row
        with pytest.raises(ValueError, match="supported levels"):
            ks_critical_value(100, level)

    def test_tabulated_levels_survive_float_arithmetic(self):
        assert ks_critical_value(100, 0.3 - 0.2) == pytest.approx(0.122)
        assert ks_critical_value(100, 0.05) == pytest.approx(0.136)

    def test_cdf_helpers(self):
        assert cauchy_cdf(0.0) == 0.5
        assert cauchy_cdf(1.0) == pytest.approx(0.75)
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(1.0, 1.0, 2.0) == 0.5


class TestCLTTarget:
    def test_zero_noise_gives_zero_matrix(self):
        c = np.tile([0.4, 0.6], (2, 1))
        t = clt_target(c, [0.4, 0.2], np.zeros((2, 2)))
        assert np.allclose(t.covariance, 0.0)

    def test_requires_rank_one_c(self):
        with pytest.raises(StructureError):
            clt_target(np.eye(2), [0.5, 0.5], np.eye(2))

    def test_matches_naive_triple_product(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = rng.integers(2, 5)
            nu = rng.random(n)
            nu /= nu.sum()
            c = np.tile(nu, (n, 1))
            eps = rng.random(n)
            root = rng.normal(size=(n, n))
            sigma = root @ root.T
            target = clt_target(c, eps, sigma).covariance
            # independent naive multiplication, index by index
            e = np.diag(eps)
            expected = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    acc = 0.0
                    for k in range(n):
                        for l in range(n):
                            acc += c[i, k] * eps[k] * sigma[k, l] * eps[l] * c[j, l]
                    expected[i, j] = acc
            assert np.allclose(target, expected, atol=1e-12)
            assert rank_one_score(target) < 1e-8

    def test_entries_are_accumulated_consensus_variance(self):
        nu = np.array([0.4, 0.6])
        eps = np.array([0.4, 0.2])
        c = np.tile(nu, (2, 1))
        t = clt_target(c, eps, np.eye(2)).covariance
        per_step = float(np.sum(nu**2 * eps**2))
        assert np.allclose(t, per_step)

    def test_long_run_second_moment_oracle(self):
        # iterated-sum oracle: the average of B^j E Sigma E B^j^T over a long
        # horizon must approach the closed-form rank-one limit
        a = np.array([[0.8, 0.2], [0.3, 0.7]])
        eps = np.array([0.2, 0.3])
        b = averaging_map(a, eps).entries
        sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
        c, converged = product_limit(b, 500, rank_one_tol=1e-13)
        assert converged
        target = clt_target(c, eps, sigma).covariance
        e = np.diag(eps)
        m_step = e @ sigma @ e
        acc = np.zeros((2, 2))
        bj = np.eye(2)
        T = 4000
        for _ in range(T):
            acc += bj @ m_step @ bj.T
            bj = b @ bj
        assert np.allclose(acc / T, target, rtol=0.02)


class TestRankOneScore:
    def test_outer_product_scores_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        assert rank_one_score(np.outer(v, v)) < 1e-14

    def test_identity_scores_one(self):
        assert rank_one_score(np.eye(2)) == 1.0

    def test_two_by_two_closed_form(self):
        s = rank_one_score([[1.0, 0.99], [0.99, 1.0]])
        assert s == pytest.approx(0.01 / 1.99)

    def test_matches_eigvalsh_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = rng.integers(2, 9)
            root = rng.normal(size=(n, n))
            cov = root @ root.T
            lam = np.sort(np.linalg.eigvalsh(cov))[::-1]
            assert rank_one_score(cov) == pytest.approx(lam[1] / lam[0], abs=1e-10)

    def test_zero_matrix(self):
        assert rank_one_score(np.zeros((3, 3))) == 0.0
        assert rank_one_score(np.zeros((1, 1))) == 0.0

    def test_asymmetry_rejected(self):
        with pytest.raises(StructureError):
            rank_one_score([[1.0, 0.5], [0.0, 1.0]])


def _base_traj(trust3, rates3, T=60):
    return simulate(ModelSpec.base(trust3, rates3, 1.0, np.zeros(3)), T, seed=0)


class TestConsensusTime:
    def test_already_at_consensus(self, trust3, rates3):
        spec = ModelSpec.base(trust3, rates3, 1.0, np.ones(3))
        traj = simulate(spec, 5, seed=0)
        assert consensus_time(traj, 1.0, 1e-9) == 0

    def test_geometric_bound(self, trust3, rates3):
        traj = _base_traj(trust3, rates3)
        t = consensus_time(traj, 1.0, 1e-6)
        assert t is not None and t <= 39  # ceil(ln 1e-6 / ln 0.7)

    def test_periodic_trajectory_never_converges(self):
        spec = ModelSpec.nonlinear(np.ones((1, 1)), scaled_sign_learning(0.4), [2.0], sigma_bar=1.0)
        traj = simulate(spec, 100, seed=0)
        assert consensus_time(traj, 1.0, 1e-3) is None

    def test_endogenous_mode(self, pair2):
        a, eps = pair2
        spec = ModelSpec.average(a, eps, NoiseSpec.zero(2), np.array([1.0, 0.0]))
        traj = simulate(spec, 10, seed=0)
        assert consensus_time(traj, None, 1e-9) == 1  # rank-one map agrees in one step

    def test_tol_validated(self, trust3, rates3):
        with pytest.raises(ValueError):
            consensus_time(_base_traj(trust3, rates3), 1.0, 0.0)


class TestPeriodicity:
    def test_constant_trajectory(self):
        assert detect_periodicity(np.ones((40, 2)), max_period=5, tol=1e-12) == 1

    def test_sign_feedback_two_cycle(self):
        spec = ModelSpec.nonlinear(np.ones((1, 1)), scaled_sign_learning(0.4), [2.0], sigma_bar=1.0)
        traj = simulate(spec, 60, seed=0)
        assert detect_periodicity(traj, max_period=6, tol=1e-9) == 2
        # the error cycles between +0.2 and -0.2 around the target
        tail = np.sort(np.unique(np.round(traj.states[-10:, 0] - 1.0, 12)))
        assert np.allclose(tail, [-0.2, 0.2], atol=1e-12)

    def test_converged_trajectory_degenerates_to_period_one(self, trust3, rates3):
        traj = _base_traj(trust3, rates3, T=200)
        assert detect_periodicity(traj, max_period=4, tol=1e-9) == 1

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            detect_periodicity(np.ones((12, 1)), max_period=4, tol=1e-9)


class TestDrift:
    def test_identical_ensembles(self):
        pts = np.random.default_rng(0).normal(size=(50, 2))
        r = distribution_drift({10: EmpiricalSample(pts), 20: EmpiricalSample(pts.copy())})
        assert r.max_distance() == 0.0
        assert r.non_convergent is None

    def test_decaying_sequence_flagged_convergent(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=400)
        samples = {
            t: EmpiricalSample(base + rng.normal(size=400) * s)
            for t, s in zip((1, 2, 3, 4, 5), (1.0, 0.5, 0.05, 0.01, 0.001))
        }
        r = distribution_drift(samples)
        assert r.non_convergent is False

    def test_persistent_shift_flagged_non_convergent(self):
        rng = np.random.default_rng(2)
        samples = {
            t: EmpiricalSample(rng.normal(size=400) + (t % 2) * 3.0) for t in range(1, 7)
        }
        r = distribution_drift(samples)
        assert r.non_convergent is True

    def test_needs_two_timestamps(self):
        with pytest.raises(ValueError):
            distribution_drift({1: EmpiricalSample(np.ones((3, 1)))})

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            distribution_drift(
                {1: EmpiricalSample(np.ones((3, 1))), 2: EmpiricalSample(np.ones((3, 2)))}
            )
