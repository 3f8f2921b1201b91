import numpy as np
import pytest

from consensuslab import (
    ModelSpec,
    NoiseSpec,
    TableExhaustedError,
    epsilon_oscillator_sequence,
    sample_noise,
    sample_noise_block,
    simulate_ensemble,
    substream,
)
from consensuslab.noise import NoiseChunks, _transform, run_keys


class TestNoiseSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown noise kind"):
            NoiseSpec("pink", 2)

    def test_covariance_must_be_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            NoiseSpec.gaussian([0, 0], [[1.0, 0.5], [0.0, 1.0]])

    def test_covariance_must_be_psd(self):
        with pytest.raises(ValueError, match="semidefinite"):
            NoiseSpec.gaussian([0, 0], [[1.0, 2.0], [2.0, 1.0]])

    def test_semidefinite_covariance_accepted(self):
        spec = NoiseSpec.gaussian([0, 0], [[1.0, 1.0], [1.0, 1.0]])
        g = sample_noise_block(spec, 100, substream(0, 0))
        assert np.allclose(g[:, 0], g[:, 1])

    def test_cauchy_scale_positive(self):
        with pytest.raises(ValueError, match="scale"):
            NoiseSpec.cauchy(1, scale=0.0)

    def test_custom_table_shape(self):
        with pytest.raises(ValueError, match="table"):
            NoiseSpec(kind="custom", n=2, table=[[1.0], [2.0]])


class TestSubstreams:
    def test_same_pair_same_draws(self):
        a = substream(123, 4).random(100)
        b = substream(123, 4).random(100)
        assert np.array_equal(a, b)

    def test_distinct_runs_uncorrelated(self):
        u = substream(9, 0).random(10_000)
        v = substream(9, 1).random(10_000)
        assert abs(np.corrcoef(u, v)[0, 1]) < 0.03

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(substream(1, 0).random(8), substream(2, 0).random(8))


class TestRunKeys:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**30, 2**200 + 7])
    def test_equal_to_seed_sequence_loop(self, seed):
        m = 2000
        keys = run_keys(seed, m)
        assert keys.shape == (m, 2) and keys.dtype == np.uint64
        for r in range(m):
            expected = np.random.SeedSequence(seed, spawn_key=(r,)).generate_state(2, np.uint64)
            assert np.array_equal(keys[r], expected), r

    def test_noise_chunks_use_the_substream_keys(self):
        chunks = NoiseChunks(NoiseSpec.rademacher(2), 8, 40, 77)
        for r in (0, 1, 17, 39):
            key = substream(77, r).bit_generator.state["state"]["key"]
            assert chunks._keys[r].tolist() == key.tolist()

    def test_no_runs(self):
        assert run_keys(5, 0).shape == (0, 2)

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            run_keys(seed, 3)

    def test_run_count_must_fit_one_word(self):
        with pytest.raises(ValueError, match="run count"):
            run_keys(0, 2**32)

    def test_negative_seed_fails_the_ensemble(self):
        spec = ModelSpec.noisy(np.eye(2), [0.5, 0.5], 1.0, NoiseSpec.gaussian(np.zeros(2), np.eye(2)), np.zeros(2))
        with pytest.raises(ValueError, match="expected non-negative integer"):
            simulate_ensemble(spec, 5, 3, -1)


class TestSampling:
    def test_zero(self):
        spec = NoiseSpec.zero(3)
        assert np.array_equal(sample_noise(spec, 5, None), np.zeros(3))

    def test_decaying(self):
        spec = NoiseSpec.decaying(2, rate=0.99)
        assert np.allclose(sample_noise(spec, 3, None), 0.99**3)
        blk = sample_noise_block(spec, 4, None)
        assert np.allclose(blk[:, 0], [0.99, 0.99**2, 0.99**3, 0.99**4])

    @pytest.mark.parametrize(
        "spec",
        [
            NoiseSpec.gaussian([0.0, 0.0], [[2.0, 0.5], [0.5, 1.0]]),
            NoiseSpec.rademacher(2),
            NoiseSpec.cauchy(2, scale=1.5),
        ],
        ids=["gaussian", "rademacher", "cauchy"],
    )
    def test_block_matches_stepwise_draws(self, spec):
        blk = sample_noise_block(spec, 9, substream(42, 0))
        s = substream(42, 0)
        seq = np.array([sample_noise(spec, t, s) for t in range(1, 10)])
        assert np.allclose(blk, seq, rtol=0, atol=1e-12)

    def test_rademacher_balance(self):
        spec = NoiseSpec.rademacher(2)
        blk = sample_noise_block(spec, 100_000, substream(7, 0))
        assert set(np.unique(blk)) == {-1.0, 1.0}
        freq = (blk > 0).mean(axis=0)
        half_width = 3 * 0.5 / np.sqrt(100_000)
        assert np.all(np.abs(freq - 0.5) < half_width)

    def test_gaussian_moments(self):
        mu = np.array([1.0, -2.0])
        sigma = np.array([[2.0, 0.8], [0.8, 1.0]])
        spec = NoiseSpec.gaussian(mu, sigma)
        m = 100_000
        blk = sample_noise_block(spec, m, substream(11, 0))
        mean_se = np.sqrt(np.diagonal(sigma) / m)
        assert np.all(np.abs(blk.mean(axis=0) - mu) < 5 * mean_se)
        emp = np.cov(blk.T, ddof=1)
        cov_se = np.sqrt((np.outer(np.diagonal(sigma), np.diagonal(sigma)) + sigma**2) / m)
        assert np.all(np.abs(emp - sigma) < 5 * cov_se)

    def test_cauchy_median_and_iqr(self):
        scale = 1.0
        spec = NoiseSpec.cauchy(1, scale=scale)
        blk = sample_noise_block(spec, 1_000_000, substream(13, 0)).ravel()
        q1, med, q3 = np.quantile(blk, [0.25, 0.5, 0.75])
        assert abs(med) < 0.02 * scale
        assert abs((q3 - q1) - 2 * scale) < 0.02 * (2 * scale)

    def test_gaussian_draws_match_reference_cdf(self):
        import scipy.stats

        from consensuslab import ks_critical_value, ks_statistic

        m = 100_000
        z = sample_noise_block(NoiseSpec.gaussian([0.0], [[1.0]]), m, substream(17, 0)).ravel()
        assert ks_statistic(z, scipy.stats.norm.cdf) < ks_critical_value(m, 0.01)

    def test_cauchy_draws_match_reference_cdf(self):
        import scipy.stats

        from consensuslab import ks_critical_value, ks_statistic

        m = 100_000
        c = sample_noise_block(NoiseSpec.cauchy(1, scale=2.0), m, substream(19, 0)).ravel()
        assert ks_statistic(c, lambda x: scipy.stats.cauchy.cdf(x, scale=2.0)) < ks_critical_value(m, 0.01)

    def test_custom_table_and_exhaustion(self):
        spec = NoiseSpec.custom([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(sample_noise(spec, 2, None), [3.0, 4.0])
        with pytest.raises(TableExhaustedError) as e:
            sample_noise(spec, 3, None)
        assert e.value.t == 3

    def test_time_scale_multiplies_draws(self):
        base = NoiseSpec.gaussian([0.0], [[1.0]])
        scaled = NoiseSpec.gaussian([0.0], [[1.0]], time_scale=lambda t: 1.0 / t)
        raw = sample_noise_block(base, 6, substream(3, 0))
        damped = sample_noise_block(scaled, 6, substream(3, 0))
        t = np.arange(1, 7, dtype=float)[:, None]
        assert np.allclose(damped, raw / t)

    def test_random_kinds_need_a_stream(self):
        with pytest.raises(ValueError, match="stream"):
            sample_noise(NoiseSpec.rademacher(1), 1, None)


class TestGaussianTransform:
    """``_transform`` equals the explicit ``ndtri(clip(u)) * diag(F) + mu``, signed zeros included.

    The transform skips multiplying by a unit diagonal and adding a zero
    mean; both skips must leave every byte as the explicit formula has it.
    """

    @staticmethod
    def _uniforms():
        u = np.random.default_rng(6).random((3, 5, 4))
        u[0, 0] = 0.5  # ndtri(1/2) = +0.0
        u[1, 2, 1] = 0.0  # clipped below at 2**-54
        u[2, 4, 3] = 0.5 - 2.0**-54
        return u

    @pytest.mark.parametrize("diag", [[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 0.5, 1.5]], ids=["unit", "non_unit"])
    @pytest.mark.parametrize("mu", [[0.0, 0.0, 0.0, 0.0], [0.0, -0.0, 0.0, 0.0], [0.5, -1.0, 0.0, 3.0]],
                             ids=["zero", "signed_zero", "nonzero"])
    def test_matches_the_explicit_formula(self, diag, mu):
        from scipy.special import ndtri

        u = self._uniforms()
        spec = NoiseSpec.gaussian(mu, np.diag(np.square(diag)))
        expected = ndtri(np.clip(u, 2.0**-54, None)) * np.array(diag) + np.array(mu)
        got = _transform(spec, u.copy(), None)  # no time_scale, so no step scales
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_no_ops_are_decided_once(self):
        unit = NoiseSpec.gaussian(np.zeros(3), np.eye(3))
        assert unit._factor is None and unit._shift is None
        scaled = NoiseSpec.gaussian(np.zeros(3), np.diag([1.0, 4.0, 9.0]))
        assert np.array_equal(scaled._factor, [1.0, 2.0, 3.0]) and scaled._shift is None
        shifted = NoiseSpec.gaussian([0.0, 1.0, 0.0], np.eye(3))
        assert shifted._factor is None and np.array_equal(shifted._shift, [0.0, 1.0, 0.0])
        # a dense product may round a zero row to -0.0, which adding +0.0 turns to +0.0
        dense = NoiseSpec.gaussian(np.zeros(2), [[2.0, 0.5], [0.5, 1.0]])
        assert dense._factor.ndim == 2 and dense._shift is not None


class TestNoiseChunks:
    def test_many_short_runs_take_two_whole_horizon_tiles(self):
        # n = 2: k only needs k * n to be a multiple of 4, so one tile of all 50000 runs would
        # take two 10-step chunks (8 MiB); two tiles of 25000 take one 20-step chunk each, one
        # Philox call per run for 20 more engine steps
        spec = NoiseSpec.gaussian(np.zeros(2), np.eye(2))
        chunks = NoiseChunks(spec, 20, 50_000, 5)
        assert (chunks.tiles, chunks.width, chunks.chunk_steps) == (2, 25_000, 20)
        assert type(chunks.chunk_steps) is int
        assert chunks._stage is None  # four steps exceed STAGE_VALUES

    def test_many_runs_engine_makes_one_philox_call_per_run(self):
        a = np.array([[0.7, 0.3], [0.4, 0.6]])
        spec = ModelSpec.noisy(a, [0.5, 0.4], 1.0, NoiseSpec.gaussian(np.zeros(2), np.eye(2)), np.zeros(2))
        engine = simulate_ensemble(spec, 20, 50_000, 401, snapshot_times=[10, 20]).engine
        assert engine["tiles"] == 2 and engine["philox_calls"] == 50_000
        assert engine["uniforms_drawn"] == 20 * 2 * 50_000
        assert engine["noise_buffer_bytes_peak"] == 8 * 20 * 2 * 25_000

    @pytest.mark.parametrize("case_id, tiles, chunk_steps", [
        ("cauchy-invariant", 2, 200), ("average-clt", 6, 520), ("gaussian-dist", 6, 520),
        ("epsilon-oscillator", 1, 348),
    ])
    def test_catalog_tiles(self, case_id, tiles, chunk_steps):
        # tiling pays where a run takes more than one chunk and the extra engine steps are few,
        # or where Gaussian runs then draw enough a chunk for the worker, each of the two
        # lookahead chunks in half the budget; epsilon-oscillator's runs draw 1000 uniforms in
        # all, too few for it
        from consensuslab import load_catalog_scenario

        s = load_catalog_scenario(case_id)
        chunks = NoiseChunks(s.model.noise, s.horizon, s.ensemble, s.master_seed)
        assert (chunks.tiles, chunks.chunk_steps) == (tiles, chunk_steps)

    @pytest.mark.parametrize("kind, geometry", [
        ("gaussian", (6, 504, 520)),
        ("rademacher", (1, 3000, 174)),
        ("cauchy", (1, 3000, 174)),
    ])
    def test_long_gaussian_runs_take_tiles_that_reach_the_worker(self, kind, geometry):
        # m = 3000, n = 2, T = 1000: one tile's chunks draw 348 uniforms a run, short of
        # OVERLAP_MIN_DRAW; in half the budget, six tiles of 504 draw 1040, so the worker takes
        # Gaussian chunks one ahead. Rademacher and Cauchy chunks never go to the worker
        spec = {"gaussian": NoiseSpec.gaussian(np.zeros(2), np.eye(2)),
                "rademacher": NoiseSpec.rademacher(2), "cauchy": NoiseSpec.cauchy(2)}[kind]
        chunks = NoiseChunks(spec, 1000, 3000, 5)
        assert (chunks.tiles, chunks.width, chunks.chunk_steps) == geometry
        assert chunks._lookahead == (geometry[0] == 6)

    @pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 100, 1024])
    def test_a_long_gaussian_horizon_always_reaches_the_worker(self, n, dense):
        # the lookahead is decided from a run's whole horizon before the geometry: the tiles
        # then make every full chunk draw the worker's minimum, two chunks in the budget
        from consensuslab import noise

        sigma = np.eye(n) + (0.5 * np.ones((n, n)) if dense else np.diag(np.linspace(0.1, 2.0, n)))
        spec = NoiseSpec.gaussian(np.zeros(n), sigma)
        least = noise.OVERLAP_MIN_DRAW
        for T in sorted({(least - 1) // n, -(-least // n), 1000}):
            for m in (1, 37, 3000, 50_000):
                chunks = NoiseChunks(spec, T, m, 5)
                assert chunks._lookahead == (T * n >= least), (T, m)
                if chunks._lookahead:
                    assert chunks.chunk_steps * n >= least, (T, m)
                    assert 2 * chunks.width * chunks.chunk_steps * n <= noise.CHUNK_VALUES, (T, m)

    def test_wide_agents_take_two_lookahead_tiles(self):
        # n = 100, m = 500, T = 500: a whole horizon fits only 8 runs in half the budget, too
        # many tiles to save Philox calls; a run's 11-step draw reaches the worker in tiles of
        # up to 472 runs, so two tiles of 256 take 20-step chunks, one ahead of the other
        chunks = NoiseChunks(NoiseSpec.gaussian(np.zeros(100), np.eye(100)), 500, 500, 3)
        assert (chunks.tiles, chunks.width, chunks.chunk_steps) == (2, 256, 20)
        assert chunks._lookahead

    def test_deterministic_noise_keeps_one_tile(self):
        chunks = NoiseChunks(NoiseSpec.decaying(2, 0.5), 20, 50_000, 5)
        assert chunks.tiles == 1 and chunks.philox_calls == 0

    def test_chunk_steps_is_a_python_int(self):
        spec = ModelSpec.average(np.full((2, 2), 0.5), [0.3, 0.3], NoiseSpec.rademacher(2), np.zeros(2))
        ens = simulate_ensemble(spec, 30, 5, 3)
        assert type(ens.engine["chunk_steps"]) is int

    @pytest.mark.parametrize("n, staged", [(2, True), (7, True), (8, False), (16, False)])
    def test_buffer_peak_counts_the_chunk_and_the_stage(self, n, staged):
        chunks = NoiseChunks(NoiseSpec.cauchy(n), 12, 5, 9)
        list(chunks)
        chunk = 8 * 12 * n * 8  # 5 runs padded to 8
        assert (chunks._stage is not None) == staged
        assert chunks.buffer_bytes_peak == chunk + (8 * 4 * n * 8 if staged else 0)

    def test_stage_is_bounded(self):
        from consensuslab import noise

        n = 2
        wide = noise.STAGE_VALUES // (4 * n)  # a multiple of 8: the stage holds exactly four steps
        assert NoiseChunks(NoiseSpec.rademacher(n), 8, wide, 1)._stage.size == noise.STAGE_VALUES
        assert NoiseChunks(NoiseSpec.rademacher(n), 8, wide + 1, 1)._stage is None

    def test_timings_are_recorded(self):
        chunks = NoiseChunks(NoiseSpec.gaussian(np.zeros(3), np.eye(3)), 40, 20, 2)
        list(chunks)
        assert chunks.fill_s > 0 and chunks.transform_s > 0


class TestEpsilonOscillator:
    def test_stays_in_band(self):
        e = epsilon_oscillator_sequence(10_000)
        assert e[0] == 0.5
        assert e.min() >= 0.25 and e.max() <= 0.75

    def test_gap_is_harmonic(self):
        e = epsilon_oscillator_sequence(5000)
        t = np.arange(1, 5001, dtype=float)
        gaps = np.abs(np.diff(e))
        assert np.max(np.abs(gaps - 0.1 / t)) < 1e-15

    def test_reaches_both_edges_eventually(self):
        e = epsilon_oscillator_sequence(1_000_000)
        assert e.min() < 0.26
        assert e.max() > 0.74

    def test_direction_flips_only_at_band_edges(self):
        # every local extreme is greedy: one more same-direction step would
        # have left the band
        e = epsilon_oscillator_sequence(5000)
        c = 0.1
        moves = np.sign(np.diff(e))  # moves[i]: direction of the step to e[i+1]
        turns = np.nonzero(moves[1:] != moves[:-1])[0] + 1
        assert turns.size >= 2
        for k in turns:
            # moves[k-1] reached the extreme e[k]; moves[k] reversed away
            peak = e[k]
            if moves[k - 1] > 0:
                assert peak <= 0.75
                assert peak + c / (k + 1) > 0.75
            else:
                assert peak >= 0.25
                assert peak - c / (k + 1) < 0.25

    def test_deterministic(self):
        assert np.array_equal(epsilon_oscillator_sequence(2000), epsilon_oscillator_sequence(2000))

    def test_needs_positive_horizon(self):
        with pytest.raises(ValueError):
            epsilon_oscillator_sequence(0)
