import numpy as np
import pytest
import reference_noise

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
from consensuslab import noise
from consensuslab.noise import NoiseChunks, _transform


def _run_rows(chunks) -> np.ndarray:
    """Every column's steps of a pass as (width, T, n): the runs, then the pad runs."""
    return np.stack([g.copy() for g in chunks]).transpose(2, 0, 1)


# one noise of each transform, a Gaussian with a diagonal factor and a mean, and with a dense factor
def _kinds(n: int) -> dict:
    g = np.random.default_rng(3).normal(size=(n, n))
    return {
        "gaussian": NoiseSpec.gaussian(np.linspace(-1.0, 2.0, n), np.diag(np.linspace(0.5, 2.0, n))),
        "dense": NoiseSpec.gaussian(np.zeros(n), g @ g.T + np.eye(n)),
        "rademacher": NoiseSpec.rademacher(n),
        "cauchy": NoiseSpec.cauchy(n, scale=0.7, time_scale=lambda t: 1.0 / t),
    }


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


class TestAddressing:
    """Uniform (run r, step t, agent i) is position r * n + i of the stream at counter (0, t, 0, 0), one key a pass."""

    @pytest.mark.parametrize("kind", ["gaussian", "dense", "rademacher", "cauchy"])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**30, 2**200 + 7])
    def test_every_run_is_the_reference(self, seed, kind):
        spec = _kinds(3)[kind]
        rows = _run_rows(NoiseChunks(spec, 4, 11, seed))
        for r in range(11):
            expected = reference_noise.run_noise(spec, 4, seed, r)
            if reference_noise.dense(spec):  # one run's product may round unlike eight runs'
                np.testing.assert_allclose(rows[r], expected, rtol=0, atol=1e-12)
            else:
                assert np.array_equal(rows[r], expected), r

    @pytest.mark.parametrize("c0", [0, 5, 2**40])
    def test_a_step_is_one_call_from_its_counter(self, c0):
        chunks = NoiseChunks(NoiseSpec.cauchy(3), 1, 5, 9)
        block = np.empty((2, chunks.width, 3))
        chunks._fill(block, c0)
        key = np.random.SeedSequence(9).generate_state(2, np.uint64)
        for rows, t in zip(block, (c0 + 1, c0 + 2)):
            stream = np.random.Generator(np.random.Philox(key=key, counter=np.array([0, t, 0, 0], dtype=np.uint64)))
            assert np.array_equal(rows, stream.random(rows.shape)), t
        assert (chunks.philox_calls, chunks.uniforms_drawn) == (2, block.size)

    def test_neighbouring_runs_steps_and_agents_are_uncorrelated(self):
        # each of the three axes of the address moves to another Philox counter or block word
        z = _run_rows(NoiseChunks(NoiseSpec.gaussian(np.zeros(2), np.eye(2)), 400, 400, 12)).transpose(1, 2, 0)
        for a, b in ((z[:, :, :-1], z[:, :, 1:]), (z[:-1], z[1:]), (z[:, 0], z[:, 1])):
            assert abs(np.mean(a * b)) < 5 / np.sqrt(a.size), a.shape

    @pytest.mark.parametrize("t", [1, 2, 1000, 2**40])
    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "cauchy"])
    def test_one_step_across_runs_has_the_law(self, kind, t):
        # the limit laws are laws across runs, so every step's noise across the ensemble must
        # have the noise's law, at any step the counter addresses
        import scipy.stats

        from consensuslab import ks_critical_value, ks_statistic

        spec = {"gaussian": NoiseSpec.gaussian([0.0], [[1.0]]), "rademacher": NoiseSpec.rademacher(1),
                "cauchy": NoiseSpec.cauchy(1, scale=2.0)}[kind]
        chunks = NoiseChunks(spec, 1, 20_000, 31)
        u = np.empty((1, chunks.width, 1))
        chunks._fill(u, t - 1)
        g = _transform(spec, u, None).ravel()
        if kind == "rademacher":
            assert set(np.unique(g)) == {-1.0, 1.0} and abs(g.mean()) < 5 / np.sqrt(g.size)
            return
        cdf = scipy.stats.norm.cdf if kind == "gaussian" else lambda x: scipy.stats.cauchy.cdf(x, scale=2.0)
        assert ks_statistic(g, cdf) < ks_critical_value(g.size, 0.01)

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            NoiseChunks(NoiseSpec.rademacher(2), 3, 4, seed)

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

    @pytest.mark.parametrize("kind", ["gaussian", "dense", "rademacher", "cauchy"])
    def test_an_empty_horizon_is_an_empty_block(self, kind):
        assert sample_noise_block(_kinds(3)[kind], 0, substream(5, 0)).shape == (0, 3)

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
    def test_many_runs_engine_makes_one_philox_call_per_step(self):
        # n = 2, m = 50000: a step is 100000 values, so half the budget holds 2 steps
        a = np.array([[0.7, 0.3], [0.4, 0.6]])
        spec = ModelSpec.noisy(a, [0.5, 0.4], 1.0, NoiseSpec.gaussian(np.zeros(2), np.eye(2)), np.zeros(2))
        engine = simulate_ensemble(spec, 20, 50_000, 401, snapshot_times=[10, 20]).engine
        assert (engine["chunk_steps"], engine["philox_calls"]) == (2, 20)
        assert engine["uniforms_drawn"] == 20 * 2 * 50_000
        assert engine["transform_parts"] == 10 * 2  # a part a step, two steps a chunk
        # the chunk stepped and the one started ahead, and the stage of one step
        assert engine["noise_buffer_bytes_peak"] == 2 * 8 * 2 * 2 * 50_000 + 8 * 2 * 50_000 == 4_000_000
        assert engine["noise_buffer_bytes_peak"] <= 8 * (noise.CHUNK_VALUES + 2 * 50_000)

    # (width, chunk_steps) of every catalog case with random noise
    CATALOG_GEOMETRY = {
        "cauchy-invariant": (10_000, 26), "average-clt": (3000, 43), "gaussian-dist": (3000, 43),
        "epsilon-oscillator": (3000, 87), "rademacher-dist": (3000, 43), "average-line": (2000, 65),
    }

    @pytest.mark.parametrize("case_id, geometry", CATALOG_GEOMETRY.items())
    def test_catalog_geometry(self, case_id, geometry):
        from consensuslab import load_catalog_scenario

        s = load_catalog_scenario(case_id)
        chunks = NoiseChunks(s.model.noise, s.horizon, s.ensemble, s.master_seed)
        assert (chunks.width, chunks.chunk_steps) == geometry

    @pytest.mark.parametrize("case_id", CATALOG_GEOMETRY)
    def test_catalog_csvs_ignore_the_chunking(self, case_id, tmp_path, monkeypatch):
        # three-step chunks give every output byte as the default chunks do
        from consensuslab import load_catalog_scenario, run_scenario

        s = load_catalog_scenario(case_id)
        steps = []
        for name, chunk_values in (("default", noise.CHUNK_VALUES), ("three", 2 * 3 * s.model.n * s.ensemble)):
            monkeypatch.setattr(noise, "CHUNK_VALUES", chunk_values)
            steps.append(run_scenario(s, out_dir=tmp_path / name).diagnostics["engine"]["chunk_steps"])
        assert steps == [self.CATALOG_GEOMETRY[case_id][1], 3]
        for name in ("ensemble.csv", "trajectory.csv"):
            assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "three" / name).read_bytes(), name

    def test_every_random_catalog_case_has_its_geometry_pinned(self):
        from consensuslab import catalog, load_catalog_scenario

        models = [load_catalog_scenario(c).model for c in catalog()]
        random_cases = {c for c, model in zip(catalog(), models) if model is not None and model.noise.is_random}
        assert random_cases == set(self.CATALOG_GEOMETRY)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 100])
    @pytest.mark.parametrize("kind", ["gaussian", "dense", "rademacher", "cauchy", "decaying"])
    def test_chunks_hold_the_most_whole_steps_of_half_the_budget(self, kind, n):
        # a random step is padded_width(m) * n values, a deterministic one n values shared by
        # every run; a step over half the budget is a chunk of its own
        spec = NoiseSpec.decaying(n, 0.5) if kind == "decaying" else _kinds(n)[kind]
        half = noise.CHUNK_VALUES // 2
        for m in (1, 37, 3000, 50_000):
            step = (noise.padded_width(m) if spec.is_random else 1) * n
            for T in (1, 20, 1000):
                chunks = NoiseChunks(spec, T, m, 5)
                k = chunks.chunk_steps
                assert chunks.width == noise.padded_width(m) and type(k) is int
                assert 1 <= k <= T and (k == 1 or k * step <= half) and (k == T or (k + 1) * step > half), (m, T)

    def test_wide_agents_take_five_step_chunks(self):
        # n = 100, m = 500, T = 500: a step of 504 runs is 50400 values, five of them fit half the budget
        chunks = NoiseChunks(NoiseSpec.gaussian(np.zeros(100), np.eye(100)), 500, 500, 3)
        assert (chunks.width, chunks.chunk_steps) == (504, 5)

    def test_deterministic_noise_is_one_column_shared_by_every_run(self):
        chunks = NoiseChunks(NoiseSpec.decaying(2, 0.5), 20, 50_000, 5)
        for t, g in enumerate(chunks, 1):
            assert g.shape == (2, 1) and np.array_equal(g, np.full((2, 1), 0.5**t)), t
        assert chunks.philox_calls == chunks.uniforms_drawn == chunks.transform_parts == 0

    def test_chunk_steps_is_a_python_int(self):
        spec = ModelSpec.average(np.full((2, 2), 0.5), [0.3, 0.3], NoiseSpec.rademacher(2), np.zeros(2))
        ens = simulate_ensemble(spec, 30, 5, 3)
        assert type(ens.engine["chunk_steps"]) is int

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 16])
    def test_buffer_peak_counts_the_chunks_and_the_stage(self, n, monkeypatch):
        # 5 runs padded to 8; one 12-step chunk, then 5-step chunks, the second started ahead
        step, stage = 8 * 8 * n, 8 * n * 8
        chunks = NoiseChunks(NoiseSpec.cauchy(n), 12, 5, 9)
        list(chunks)
        assert chunks.buffer_bytes_peak == 12 * step + stage
        monkeypatch.setattr(noise, "CHUNK_VALUES", 2 * 5 * 8 * n)
        chunks = NoiseChunks(NoiseSpec.cauchy(n), 12, 5, 9)
        list(chunks)
        assert chunks.chunk_steps == 5 and chunks.buffer_bytes_peak == 2 * 5 * step + stage

    def test_a_step_over_the_budget_is_a_chunk_of_its_own(self, monkeypatch):
        monkeypatch.setattr(noise, "CHUNK_VALUES", 2)
        spec = NoiseSpec.rademacher(3)
        chunks = NoiseChunks(spec, 6, 9, 4)
        rows = _run_rows(chunks)
        assert (chunks.chunk_steps, chunks.philox_calls, chunks.transform_parts) == (1, 6, 6)
        for r in range(9):
            assert np.array_equal(rows[r], reference_noise.run_noise(spec, 6, 4, r)), r

    @pytest.mark.parametrize("kind", ["gaussian", "dense", "rademacher", "cauchy"])
    def test_pad_columns_are_the_next_runs(self, kind):
        # 37 runs padded to 40: columns 37..39 are runs 37..39 of a wider pass, never reported
        spec = _kinds(3)[kind]
        wide, padded = _run_rows(NoiseChunks(spec, 9, 48, 6)), _run_rows(NoiseChunks(spec, 9, 37, 6))
        assert padded.shape == (40, 9, 3)
        assert np.array_equal(padded, wide[:40])

    def test_timings_are_recorded(self):
        chunks = NoiseChunks(NoiseSpec.gaussian(np.zeros(3), np.eye(3)), 40, 20, 2)
        list(chunks)
        assert chunks.fill_s > 0 and chunks.transform_s > 0

    @pytest.mark.parametrize("kind", ["gaussian", "cauchy"])
    def test_interleaved_passes_keep_their_own_streams(self, kind, monkeypatch):
        # 4-step chunks, so each pass sets its generator's counter for every step of its three
        # chunks while the other pass sets its own
        monkeypatch.setattr(noise, "CHUNK_VALUES", 2 * 4 * 16 * 3)
        spec = _kinds(3)[kind]
        T, m = 9, 11
        a, b = NoiseChunks(spec, T, m, 5), NoiseChunks(spec, T, m, 6)
        assert (a.width, a.chunk_steps) == (b.width, b.chunk_steps) == (16, 4)
        steps = [(ga.copy(), gb.copy()) for ga, gb in zip(a, b)]
        for seed, side in ((5, 0), (6, 1)):
            rows = np.stack([pair[side] for pair in steps]).transpose(2, 0, 1)
            for r in range(m):
                assert np.array_equal(rows[r], reference_noise.run_noise(spec, T, seed, r)), (seed, r)
        assert a.philox_calls == b.philox_calls == T


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
