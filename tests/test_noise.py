import ctypes
import math

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
from consensuslab import noise
from consensuslab.noise import NoiseChunks, _transform, run_keys, seed_pool


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

    @pytest.mark.parametrize("seed", [0, 2**32 + 5, 10**30])
    @pytest.mark.parametrize("first, count", [(0, 5), (1, 1), (2336, 700), (2**32 - 3, 2)])
    def test_keys_from_a_first_run(self, seed, first, count):
        keys = run_keys(seed, count, first)
        assert keys.shape == (count, 2) and keys.dtype == np.uint64
        for i in range(count):
            expected = np.random.SeedSequence(seed, spawn_key=(first + i,)).generate_state(2, np.uint64)
            assert np.array_equal(keys[i], expected), i
        if first + count < 10_000:
            assert np.array_equal(keys, run_keys(seed, first + count)[first:])

    def test_noise_chunks_use_the_substream_keys(self):
        # n = 7: the stage holds four steps of 2336 runs, so 5000 runs go through in three tiles,
        # each keyed from its own first run
        spec = NoiseSpec.rademacher(7)
        chunks = NoiseChunks(spec, 8, 5000, 77)
        assert (chunks.tiles, chunks.width) == (3, 1672)
        steps = np.stack([g.copy() for g in chunks])  # (tiles * T, n, width)
        for r in (0, 1, 1671, 1672, 3344, 4999):
            tile, col = divmod(r, chunks.width)
            rows = steps[tile * 8 : tile * 8 + 8, :, col]
            assert np.array_equal(rows, sample_noise_block(spec, 8, substream(77, r))), r

    @pytest.mark.parametrize("first", [0, 1, 777, 2**32 - 9])
    def test_keys_from_a_seed_pool(self, first):
        seed = 2**64 + 2**40 + 12345  # three 32-bit words
        keys = run_keys(seed_pool(seed), 8, first)
        for i in range(8):
            expected = np.random.SeedSequence(seed, spawn_key=(first + i,)).generate_state(2, np.uint64)
            assert np.array_equal(keys[i], expected), i
        assert np.array_equal(keys, run_keys(seed, 8, first))

    def test_an_ensemble_pass_mixes_the_seed_once(self, monkeypatch):
        pools, firsts = [], []
        real_pool, real_keys = noise.seed_pool, noise.run_keys
        monkeypatch.setattr(noise, "seed_pool", lambda seed: pools.append(seed) or real_pool(seed))
        monkeypatch.setattr(noise, "run_keys", lambda pool, count, first: firsts.append(first) or
                            real_keys(pool, count, first))
        spec = ModelSpec.noisy(np.eye(2), [0.5, 0.5], 1.0, NoiseSpec.rademacher(2), np.zeros(2))
        ens = simulate_ensemble(spec, 4, 20_000, 2**70 + 3)
        # n = 2: the stage holds four steps of 8192 runs, so three tiles, each keyed at its first run
        assert ens.engine["tiles"] == 3 and pools == [2**70 + 3]
        assert firsts == [0, 6672, 13344]

    def test_no_runs(self):
        assert run_keys(5, 0).shape == (0, 2)

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            run_keys(seed, 3)

    @pytest.mark.parametrize("count, first", [(2**32, 0), (2, 2**32 - 2), (1, -1), (-1, 0)])
    def test_run_count_must_fit_one_word(self, count, first):
        with pytest.raises(ValueError, match="run count"):
            run_keys(0, count, first)

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
    def test_many_short_runs_take_seven_staged_whole_horizon_tiles(self):
        # n = 2: k only needs k * n to be a multiple of 4, so one tile of all 50000 runs would
        # take five 4-step chunks in half the budget (4 MiB, the other half for the chunk
        # started ahead); four tiles of 12504 would take one 20-step chunk each, but
        # the stage holds four steps of at most 8192 runs, so seven tiles of 7144 do
        from consensuslab import noise

        spec = NoiseSpec.gaussian(np.zeros(2), np.eye(2))
        chunks = NoiseChunks(spec, 20, 50_000, 5)
        assert (chunks.tiles, chunks.width, chunks.chunk_steps) == (7, 7144, 20)
        assert type(chunks.chunk_steps) is int
        assert chunks._stage.shape == (4, 2, 7144) and chunks._stage.size <= noise.STAGE_VALUES

    def test_many_runs_engine_makes_one_philox_call_per_run(self):
        from consensuslab import noise

        a = np.array([[0.7, 0.3], [0.4, 0.6]])
        spec = ModelSpec.noisy(a, [0.5, 0.4], 1.0, NoiseSpec.gaussian(np.zeros(2), np.eye(2)), np.zeros(2))
        engine = simulate_ensemble(spec, 20, 50_000, 401, snapshot_times=[10, 20]).engine
        assert (engine["tiles"], engine["chunk_steps"], engine["philox_calls"]) == (7, 20, 50_000)
        assert engine["uniforms_drawn"] == 20 * 2 * 50_000
        assert engine["transform_parts"] == 7 * noise.TRANSFORM_PARTS == 56
        # a tile's chunk and the next tile's, started ahead, with their pad, and the stage
        assert engine["noise_buffer_bytes_peak"] == 2 * 8 * 20 * 2 * 7144 + 8 * 4 * 2 * 7144 == 5_029_376
        assert engine["noise_buffer_bytes_peak"] <= 8 * (noise.CHUNK_VALUES + noise.STAGE_VALUES)

    # (tiles, width, chunk_steps) of every catalog case with random noise
    CATALOG_GEOMETRY = {
        "cauchy-invariant": (4, 2504, 200), "average-clt": (2, 1504, 174), "gaussian-dist": (2, 1504, 174),
        "epsilon-oscillator": (1, 3000, 172), "rademacher-dist": (2, 1504, 174), "average-line": (1, 2000, 130),
    }

    @pytest.mark.parametrize("case_id, geometry", CATALOG_GEOMETRY.items())
    def test_catalog_tiles(self, case_id, geometry):
        # the least cost of Philox calls and tile-steps, every chunk in half the budget: a
        # second tile pays where it halves a run's 86-step chunks (n = 2: 12 a run in
        # gaussian-dist and rademacher-dist, 24 in average-clt), and four take a Cauchy run's
        # 200 steps to one chunk. Halving epsilon-oscillator's 6 chunks saves 9000 calls for
        # 1000 more steps, and average-line's 12 saves 12000 for 1500: neither pays. No
        # catalog tile is too wide for the stage to hold four of its steps
        from consensuslab import load_catalog_scenario

        s = load_catalog_scenario(case_id)
        chunks = NoiseChunks(s.model.noise, s.horizon, s.ensemble, s.master_seed)
        assert (chunks.tiles, chunks.width, chunks.chunk_steps) == geometry

    @pytest.mark.parametrize("case_id", CATALOG_GEOMETRY)
    def test_catalog_csvs_ignore_the_tiling(self, case_id, tmp_path, monkeypatch):
        # the most tiles the rule allows and the fewest give every output byte alike
        from consensuslab import load_catalog_scenario, run_scenario

        s = load_catalog_scenario(case_id)
        tiles = []
        for step_calls in (0, 10**9):
            monkeypatch.setattr(noise, "STEP_CALLS", step_calls)
            tiles.append(run_scenario(s, out_dir=tmp_path / str(step_calls)).diagnostics["engine"]["tiles"])
        assert tiles[0] > tiles[1]
        for name in ("ensemble.csv", "trajectory.csv"):
            assert (tmp_path / "0" / name).read_bytes() == (tmp_path / str(10**9) / name).read_bytes(), name

    def test_every_random_catalog_case_has_its_geometry_pinned(self):
        from consensuslab import catalog, load_catalog_scenario

        models = [load_catalog_scenario(c).model for c in catalog()]
        random_cases = {c for c, model in zip(catalog(), models) if model is not None and model.noise.is_random}
        assert random_cases == set(self.CATALOG_GEOMETRY)

    def test_no_catalog_case_tiles_a_varying_schedule(self):
        # simulate_ensemble queries the schedules again for every tile, so a catalog case whose
        # weights or rates vary by step keeps one tile, whatever the engine's geometry
        from consensuslab import Constant, catalog, load_catalog_scenario

        varying = []
        for case_id in catalog():
            s = load_catalog_scenario(case_id)
            schedules = () if s.model is None else (s.model.schedule_A, s.model.schedule_E)
            if all(f is None or isinstance(f, Constant) for f in schedules):
                continue
            varying.append(case_id)
            assert NoiseChunks(s.model.noise, s.horizon, s.ensemble, s.master_seed).tiles == 1, case_id
        assert "epsilon-oscillator" in varying

    @pytest.mark.parametrize("kind, geometry", [
        ("gaussian", (2, 1504, 174)),
        ("rademacher", (2, 1504, 174)),
        ("cauchy", (2, 1504, 174)),
    ])
    def test_long_runs_take_their_least_cost_tiles(self, kind, geometry):
        # m = 3000, n = 2, T = 1000: in half the budget one tile's chunks hold 86 steps, two
        # tiles' 174. At STEP_CALLS Philox calls a tile-step, the 18000 calls a second tile
        # saves outweigh its 1000 steps, whatever the noise class
        spec = {"gaussian": NoiseSpec.gaussian(np.zeros(2), np.eye(2)),
                "rademacher": NoiseSpec.rademacher(2), "cauchy": NoiseSpec.cauchy(2)}[kind]
        chunks = NoiseChunks(spec, 1000, 3000, 5)
        assert (chunks.tiles, chunks.width, chunks.chunk_steps) == geometry

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 100])
    @pytest.mark.parametrize("kind", ["diagonal", "dense", "rademacher", "cauchy"])
    def test_tiles_are_the_least_cost(self, kind, n):
        # brute force over every tile count whose tiles hold WIDTH_PAD runs or more and, at
        # n < 8, fit the stage: the least Philox calls plus STEP_CALLS per tile-step, ties to
        # the fewest tiles. Every chunk is one of two in the budget
        spec = {"diagonal": NoiseSpec.gaussian(np.zeros(n), np.diag(np.linspace(0.5, 2.0, n))),
                "dense": NoiseSpec.gaussian(np.zeros(n), np.eye(n) + 0.5 * np.ones((n, n))),
                "rademacher": NoiseSpec.rademacher(n), "cauchy": NoiseSpec.cauchy(n)}[kind]
        dense = spec._factor is not None and spec._factor.ndim == 2
        assert dense == (kind == "dense" and n > 1)
        align = noise.STEP_GROUP if dense else 4 // math.gcd(n, 4)
        budget = noise.CHUNK_VALUES // 2
        for m in (1, 37, 3000, 50_000):
            for T in (1, 20, 1000):
                best = None
                for t in range(1, -(-m // noise.WIDTH_PAD) + 1):
                    W = noise.padded_width(-(-m // t))
                    if n < 8 and 4 * n * W > noise.STAGE_VALUES:
                        continue
                    k = max(align, budget // (W * n) // align * align)
                    cost = m * -(-T // k) + noise.STEP_CALLS * T * -(-m // W)
                    if best is None or cost < best[0]:
                        best = (cost, -(-m // W), W, min(k, T))
                chunks = NoiseChunks(spec, T, m, 5)
                assert (chunks.tiles, chunks.width, chunks.chunk_steps) == best[1:], (m, T)

    def test_wide_agents_take_two_lookahead_tiles(self):
        # n = 100, m = 500, T = 500: one tile of 504 takes 10-step chunks, 25000 Philox calls;
        # two of 256 take 20-step chunks, 12500 calls for 500 more tile-steps, which STEP_CALLS
        # prices below the calls saved; three of 168 would save 4000 calls for 500 more steps
        chunks = NoiseChunks(NoiseSpec.gaussian(np.zeros(100), np.eye(100)), 500, 500, 3)
        assert (chunks.tiles, chunks.width, chunks.chunk_steps) == (2, 256, 20)

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

    @pytest.mark.parametrize("n", range(1, 8))
    def test_stage_is_bounded(self, n):
        # at n < 8 a random tile is never wider than four steps of the stage, rounded down to WIDTH_PAD
        from consensuslab import noise

        wide = noise.STAGE_VALUES // (4 * n) // noise.WIDTH_PAD * noise.WIDTH_PAD
        for m, tiles in ((wide, 1), (wide + 1, 2), (3 * wide + 1, 4), (50_000, -(-50_000 // wide))):
            for spec in (NoiseSpec.rademacher(n), NoiseSpec.gaussian(np.zeros(n), np.eye(n))):
                chunks = NoiseChunks(spec, 8, m, 1)
                assert chunks.tiles == tiles and chunks.width <= wide, (m, spec.kind)
                assert chunks._stage.shape == (4, n, chunks.width)
                assert chunks._stage.size <= noise.STAGE_VALUES

    def test_timings_are_recorded(self):
        chunks = NoiseChunks(NoiseSpec.gaussian(np.zeros(3), np.eye(3)), 40, 20, 2)
        list(chunks)
        assert chunks.fill_s > 0 and chunks.transform_s > 0


class TestPhiloxViews:
    """The engine re-keys its one Philox generator per run through views of numpy's C state."""

    @pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.SFC64, np.random.MT19937])
    def test_other_generators_are_refused_untouched(self, bitgen):
        # PCG64's key word is null; SFC64's and MT19937's first words are state, not pointers,
        # which the guard refuses before reading through them, and nothing is written
        bg = bitgen(1)
        with pytest.raises(AssertionError, match="does not hold numpy's Philox state layout"):
            noise._philox_views(bg)
        assert np.array_equal(bg.random_raw(4), bitgen(1).random_raw(4))

    def test_a_layout_that_does_not_read_back_is_refused(self, monkeypatch):
        # counter and key swapped: both pointers lie inside the generator, the sentinel does not read back
        swapped = [("key", ctypes.c_void_p), ("ctr", ctypes.c_void_p), ("buffer_pos", ctypes.c_int)]
        monkeypatch.setattr(noise, "_PhiloxHead", type("Swapped", (ctypes.Structure,), {"_fields_": swapped}))
        with pytest.raises(AssertionError, match="does not read back"):
            noise._philox_views(np.random.Philox(0))

    def test_views_rekey_like_the_state_setter(self):
        bg = np.random.Philox(0)
        key, ctr, pos = noise._philox_views(bg)
        assert ctr.tolist()[1:] == [0, 0, 0]
        gen = np.random.Generator(bg)
        k = [0x9E3779B97F4A7C15, 0x243F6A8885A308D3]
        for c in (0, 3, 2**40):
            gen.random(3)  # leave part of a block buffered
            key[0], key[1], ctr[0], pos[0] = k[0], k[1], c, 4
            expected = np.random.Generator(np.random.Philox(key=np.array(k, dtype=np.uint64), counter=c))
            assert np.array_equal(gen.random(9), expected.random(9)), c

    @pytest.mark.parametrize("spec", [NoiseSpec.gaussian(np.zeros(3), np.eye(3)), NoiseSpec.cauchy(3)],
                             ids=["gaussian", "cauchy"])
    def test_interleaved_passes_keep_their_own_streams(self, spec, monkeypatch):
        # 4-step chunks of 16 columns (each chunk one of two in the budget), so each pass
        # re-keys its generator three times per run; T * n = 27 ends the last chunk mid-block
        monkeypatch.setattr(noise, "CHUNK_VALUES", 2 * 4 * 16 * 3)
        T, m = 9, 11
        a, b = NoiseChunks(spec, T, m, 5), NoiseChunks(spec, T, m, 6)
        assert (a.tiles, a.width, a.chunk_steps) == (b.tiles, b.width, b.chunk_steps) == (1, 16, 4)
        for view_a, view_b in zip((a._key, a._ctr, a._pos), (b._key, b._ctr, b._pos)):
            assert not np.shares_memory(view_a, view_b)
        steps = [(ga.copy(), gb.copy()) for ga, gb in zip(a, b)]
        for seed, side in ((5, 0), (6, 1)):
            rows = np.stack([pair[side] for pair in steps])  # (T, n, width)
            for r in range(m):
                assert np.array_equal(rows[:, :, r], sample_noise_block(spec, T, substream(seed, r))), (seed, r)
        assert a.philox_calls == b.philox_calls == 3 * m


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
