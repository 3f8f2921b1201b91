"""Seeded noise processes and special learning-rate constructions.

Randomness discipline
---------------------
Every random draw in the package comes from a counter-based Philox stream.
Run ``r`` of an ensemble seeded with ``master_seed`` owns the stream whose
key is ``SeedSequence(master_seed, spawn_key=(r,)).generate_state(2,
np.uint64)``, which is what ``substream(master_seed, r)`` builds, so a
run's stream never depends on how many sibling runs exist or on execution
order. Within one run the random kinds consume exactly ``n`` uniform
doubles per time step (deterministic kinds consume none), so the uniform
feeding component ``i`` of step ``t`` always sits at stream position
``(t - 1) * n + i``.

Philox makes four doubles per counter value, so any position ``p`` that is
a multiple of four is reached from the key alone by setting the counter to
``p / 4`` with an empty output buffer (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC'11).

The simulation engine (``NoiseChunks``) relies on this to draw noise in
chunks of ``k`` steps, ``k * n`` a multiple of four (``k`` itself a multiple
of ``STEP_GROUP`` for a dense covariance factor, see ``_correlate``), with
``k * n`` times the width at most ``CHUNK_VALUES`` (the smallest such ``k``
when even that is too many values). It derives every run's key once, all
runs in one vectorised pass of the ``SeedSequence`` hash (``run_keys``,
checked against numpy at run 0), points one reused generator at each run in
turn to fill that run's rows of a run-major ``(width, k, n)`` buffer, one
Philox call per run and chunk, and transforms the chunk (see below). When a
run's row is shorter than a cache line (``n < 8``) and four steps fit in
``STAGE_VALUES``, every four steps of the chunk are copied into a
step-major ``(4, n, width)`` stage, so a step reads its noise contiguously.
Deterministic kinds compute their rows chunk by chunk and share them
between runs. Memory stays at ``CHUNK_VALUES`` plus one stage whatever the
horizon, and run ``r``'s rows equal ``sample_noise_block(spec, T,
substream(master_seed, r))`` bit for bit whatever the chunk size, the
tiling or the ensemble width.

The runs of a random chunk are filled in ``TRANSFORM_PARTS`` consecutive
parts of whole runs. Where it pays (``_overlaps`` of a run's ``T * n``
uniforms), the chunk is started one ahead: chunk ``c + 1`` is filled, each
part handed to one worker thread once filled, before the engine steps chunk
``c``, each chunk in one of two buffers of half ``CHUNK_VALUES``, and the
geometry below is sized with that half. When the engine reaches ``c + 1``,
the filling thread takes back the parts the worker has not started, last
first, and waits for the rest. Any other chunk has one buffer of the whole
budget and each part is transformed on the filling thread right after its
fill, so the worker is used exactly when a chunk goes one ahead.
``ndtri``, the ufuncs and ``matmul`` release the GIL; re-keying Philox
holds it once per run, so only the filling thread draws. The transform is
elementwise (per run for ``_correlate``) with each step's ``time_scale``
evaluated once, on the filling thread, so no byte depends on the thread. An
error in starting a chunk (its fill, ``time_scale`` or a part's transform)
is raised as it was at the chunk's first step, and closing the iteration
early stops every part of the chunk ahead. A process forked after the
worker started has no worker and takes back every part.

The width is the run count padded with zero-noise runs to a multiple of
``WIDTH_PAD`` (``padded_width(m)``), one tile. Random runs may instead go
through in equal column tiles, each padded to ``WIDTH_PAD`` and stepped
through the whole horizon in turn. The narrower of two widths wins:

* the fewest tiles whose whole horizon is one chunk, where the Philox calls
  this saves, ``m * (chunks per run - 1)``, exceed ``STEP_CALLS`` times the
  engine steps it adds, ``T * (tiles - 1)``;
* where a chunk goes one ahead, the fewest tiles whose chunk draws at least
  ``OVERLAP_MIN_DRAW`` uniforms a run. At ``n < 1024`` a chunk of
  ``ceil(1024 / n)`` steps fits about 100 runs or more in half the budget,
  and at ``n >= 1024`` any chunk draws ``n``, so every such chunk but a
  horizon's last reaches the worker's minimum. An extra tile-step costs
  about 8-15 us; each chunk it buys moves at least 1024 uniforms of
  ``ndtri``, about 22 us on the filling thread, to the worker and needs
  fewer Philox calls.

The distributional transforms are explicit, so ports to other stacks can
match them distributionally:

* gaussian: inverse normal CDF of the uniform, then the affine map
  ``mu + F z`` where ``F F^T`` equals the requested covariance;
* rademacher: ``+1`` where the uniform is at least one half, else ``-1``;
* cauchy: ``scale * tan(pi * (u - 1/2))``.

Uniforms are clipped below at ``2**-54`` before the inverse normal CDF so a
zero draw (probability ``2**-53``) cannot produce an infinity.
"""

from __future__ import annotations

import math
import mmap
import operator
import sys
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import product
from time import perf_counter
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtri

from .errors import TableExhaustedError

ZERO = "zero"
DECAYING = "decaying"
GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"
CAUCHY = "cauchy"
CUSTOM = "custom"

_KINDS = (ZERO, DECAYING, GAUSSIAN, RADEMACHER, CAUCHY, CUSTOM)
_RANDOM_KINDS = (GAUSSIAN, RADEMACHER, CAUCHY)

_U_FLOOR = 2.0**-54


def _covariance_factor(sigma: np.ndarray) -> np.ndarray:
    """Deterministic F with F @ F.T == sigma, tolerant of semidefinite input."""
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(sigma)
        return v * np.sqrt(np.clip(w, 0.0, None))


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Declarative description of the per-step disturbance process.

    ``time_scale``, when given, multiplies the step-``t`` draw by a scalar
    schedule value, which covers decaying-magnitude processes such as
    Gaussian noise damped like ``1/t``.
    """

    kind: str
    n: int
    rate: Optional[float] = None
    mu: Optional[np.ndarray] = None
    sigma: Optional[np.ndarray] = None
    scale: Optional[float] = None
    table: Optional[np.ndarray] = None
    time_scale: Optional[Callable[[int], float]] = None
    # F, diag(F) if F is diagonal, or None if F is the identity
    _factor: Optional[np.ndarray] = field(init=False, default=None, repr=False)
    # mu, or None where adding it changes no value
    _shift: Optional[np.ndarray] = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; known: {_KINDS}")
        if self.n < 1:
            raise ValueError("noise dimension must be positive")
        if self.kind == DECAYING:
            if self.rate is None or not np.isfinite(self.rate):
                raise ValueError("decaying noise needs a finite rate")
        elif self.kind == GAUSSIAN:
            mu = np.zeros(self.n) if self.mu is None else np.asarray(self.mu, dtype=float)
            sig = np.eye(self.n) if self.sigma is None else np.asarray(self.sigma, dtype=float)
            if mu.shape != (self.n,):
                raise ValueError(f"mu must have shape ({self.n},)")
            if sig.shape != (self.n, self.n):
                raise ValueError(f"sigma must have shape ({self.n}, {self.n})")
            if not (np.isfinite(mu).all() and np.isfinite(sig).all()):
                raise ValueError("mu and sigma must be finite")
            if np.max(np.abs(sig - sig.T)) > 1e-9:
                raise ValueError("covariance must be symmetric")
            if np.linalg.eigvalsh(sig).min() < -1e-9:
                raise ValueError("covariance must be positive semidefinite")
            object.__setattr__(self, "mu", mu)
            object.__setattr__(self, "sigma", sig)
            F = _covariance_factor(sig)
            # a diagonal factor is kept as its diagonal: ``z * diag(F)`` equals ``z @ F.T`` bit for bit
            if not np.count_nonzero(F - np.diag(np.diagonal(F))):
                F = np.diagonal(F).copy()
                F = None if np.all(F == 1.0) else F
            # Adding a zero mean changes only -0.0 (to +0.0). ``ndtri`` never returns -0.0 and
            # a positive diagonal makes none, so the add is skipped then; a dense product can
            # round to -0.0, so it keeps the add
            positive = F is None or (F.ndim == 1 and np.all(F > 0.0))
            object.__setattr__(self, "_factor", F)
            object.__setattr__(self, "_shift", None if positive and not np.any(mu) else mu)
        elif self.kind == CAUCHY:
            scale = 1.0 if self.scale is None else float(self.scale)
            if not (scale > 0.0):
                raise ValueError("cauchy scale must be positive")
            object.__setattr__(self, "scale", scale)
        elif self.kind == CUSTOM:
            if self.table is None:
                raise ValueError("custom noise needs a table")
            tab = np.asarray(self.table, dtype=float)
            if tab.ndim != 2 or tab.shape[1] != self.n:
                raise ValueError(f"table must have shape (T, {self.n})")
            object.__setattr__(self, "table", tab)

    @property
    def is_random(self) -> bool:
        return self.kind in _RANDOM_KINDS

    @classmethod
    def zero(cls, n: int) -> "NoiseSpec":
        return cls(ZERO, n)

    @classmethod
    def decaying(cls, n: int, rate: float) -> "NoiseSpec":
        return cls(DECAYING, n, rate=rate)

    @classmethod
    def gaussian(cls, mu, sigma, time_scale=None) -> "NoiseSpec":
        mu = np.asarray(mu, dtype=float)
        return cls(GAUSSIAN, mu.shape[0], mu=mu, sigma=sigma, time_scale=time_scale)

    @classmethod
    def rademacher(cls, n: int, time_scale=None) -> "NoiseSpec":
        return cls(RADEMACHER, n, time_scale=time_scale)

    @classmethod
    def cauchy(cls, n: int, scale: float = 1.0, time_scale=None) -> "NoiseSpec":
        return cls(CAUCHY, n, scale=scale, time_scale=time_scale)

    @classmethod
    def custom(cls, table) -> "NoiseSpec":
        tab = np.asarray(table, dtype=float)
        return cls(CUSTOM, tab.shape[1], table=tab)


def substream(master_seed: int, run: int) -> np.random.Generator:
    """Independent, reproducible stream for one run of an ensemble.

    Distinct ``(master_seed, run)`` pairs give statistically independent
    streams; the same pair always gives the same stream, on every platform,
    because both the SeedSequence spawn and the Philox generator are fixed
    algorithms with no environmental entropy.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(run,))
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words and two running hash constants, advanced once per hashmix.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(h: int, mult: int):
    """The (xor, multiply) constants of successive hashmix calls."""
    while True:
        nxt = h * mult & 0xFFFFFFFF
        yield h, nxt
        h = nxt


def _hashmix(v: np.ndarray, consts: tuple[int, int]) -> np.ndarray:
    xor, mult = consts
    v = (v ^ xor) * mult  # uint32 arrays wrap modulo 2**32, as the C code does
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> 16)


def run_keys(master_seed: int, m: int) -> np.ndarray:
    """Philox keys of runs 0..m-1 as an (m, 2) uint64 array.

    Row ``r`` is ``SeedSequence(master_seed, spawn_key=(r,))
    .generate_state(2, np.uint64)``, the key of ``substream(master_seed,
    r)``, computed for every run at once with numpy's hash on uint32
    arrays. The entropy is the seed's 32-bit words, zero-padded to the
    pool size, then the run index as one word; only that last word
    differs between runs. Row 0 is checked against numpy itself.
    """
    seed = operator.index(master_seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if not 0 <= m < 2**32:
        raise ValueError(f"run count must lie in [0, 2**32), got {m}")
    words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    words = [np.array([w], dtype=np.uint32) for w in words + [0] * (_POOL - len(words))]

    hash_a = _hash_consts(_INIT_A, _MULT_A)
    mixer = [_hashmix(w, next(hash_a)) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixer[dst] = _mix(mixer[dst], _hashmix(mixer[src], next(hash_a)))
    for w in words[_POOL:]:
        for dst in range(_POOL):
            mixer[dst] = _mix(mixer[dst], _hashmix(w, next(hash_a)))

    # The run word's mixing round, then generate_state(2, np.uint64): word i
    # of the output hashes pool word i, and words (0, 1), (2, 3) are the
    # low and high halves of the two keys.
    runs = np.arange(m, dtype=np.uint32)
    keys = np.empty((m, 2), dtype=np.uint64)
    out = keys.view(np.uint32)
    swap = int(sys.byteorder == "big")
    hash_b = _hash_consts(_INIT_B, _MULT_B)
    for i in range(_POOL):
        out[:, i ^ swap] = _hashmix(_mix(mixer[i], _hashmix(runs, next(hash_a))), next(hash_b))

    ref = np.random.SeedSequence(master_seed, spawn_key=(0,)).generate_state(2, np.uint64)
    if m and not np.array_equal(keys[0], ref):
        raise AssertionError("vectorised SeedSequence hash disagrees with numpy at run 0")
    return keys


# BLAS picks its kernels by the shape of a call, so the bytes of one row (or
# column) of a product depend on how many rows (columns) share the call. Two
# fixed shapes keep a run's bytes independent of the chunk size, the tiling
# and the ensemble width: ``_correlate`` multiplies ``STEP_GROUP`` steps of
# one run at a time, and the engine's state block ``X`` in ``M @ X`` always
# has a multiple of ``WIDTH_PAD`` columns (``padded_width(m)``, or a tile's
# width), the runs followed by zero-noise pad columns.
STEP_GROUP = 4
WIDTH_PAD = 8


def padded_width(m: int) -> int:
    """Columns of the engine's state block for ``m`` runs: the least multiple of ``WIDTH_PAD`` >= max(m, 1)."""
    return max(1, -(-m // WIDTH_PAD)) * WIDTH_PAD


def _correlate(z: np.ndarray, F: np.ndarray) -> np.ndarray:
    """``z @ F.T`` for a (runs, k, n) block of steps ``c0 + 1 ..``, ``c0`` a multiple of ``STEP_GROUP``.

    Every product here covers the steps ``4j + 1 .. 4j + 4`` of one run
    (only a horizon's last ``T % 4`` steps share a shorter call), so a row's
    bytes depend on neither the chunk size nor the ensemble width.
    """
    runs, k, n = z.shape
    q = k - k % STEP_GROUP
    out = np.empty_like(z)
    out[:, :q] = (z[:, :q].reshape(runs, q // STEP_GROUP, STEP_GROUP, n) @ F.T).reshape(runs, q, n)
    out[:, q:] = z[:, q:] @ F.T
    return out


def _step_scales(spec: NoiseSpec, ts: np.ndarray) -> Optional[np.ndarray]:
    """The ``time_scale`` of each step ``ts`` as a (len(ts), 1) column, or None without one."""
    if spec.time_scale is None:
        return None
    return np.array([float(spec.time_scale(int(t))) for t in ts])[:, None]


def _transform(spec: NoiseSpec, u: np.ndarray, scales: Optional[np.ndarray]) -> np.ndarray:
    """Map a (runs, k, n) block of uniforms to noise in place; ``scales`` from ``_step_scales``.

    This is the one transform: the engine's chunks and ``sample_noise_block``
    both go through it. It calls no Python code of the spec, so the engine
    may run it on its worker thread (see ``NoiseChunks``).
    """
    if spec.kind == GAUSSIAN:
        np.clip(u, _U_FLOOR, None, out=u)
        ndtri(u, out=u)
        if spec._factor is not None:
            if spec._factor.ndim == 1:
                u *= spec._factor
            else:
                u[...] = _correlate(u, spec._factor)
        if spec._shift is not None:
            u += spec._shift
    elif spec.kind == RADEMACHER:
        u -= 0.5  # exact, and nonnegative exactly where u >= 1/2
        np.copysign(1.0, u, out=u)
    elif spec.kind == CAUCHY:
        u -= 0.5
        u *= np.pi
        np.tan(u, out=u)
        u *= spec.scale
    else:
        raise AssertionError(spec.kind)
    if scales is not None:
        u *= scales
    return u


def _rows(spec: NoiseSpec, ts: np.ndarray, stream: Optional[np.random.Generator]) -> np.ndarray:
    """Disturbances of the consecutive steps ``ts`` as a (len(ts), n) block.

    Random kinds draw ``len(ts) * n`` uniforms from ``stream`` in step
    order; deterministic kinds ignore it. Every public sampler is a view of
    this one function.
    """
    k = len(ts)
    if spec.is_random:
        if stream is None:
            raise ValueError(f"{spec.kind} noise needs a random stream")
        return _transform(spec, stream.random((1, k, spec.n)), _step_scales(spec, ts))[0]
    if spec.kind == ZERO:
        g = np.zeros((k, spec.n))
    elif spec.kind == DECAYING:
        g = spec.rate ** ts.astype(float)[:, None] * np.ones((1, spec.n))
    else:
        rows = spec.table.shape[0]
        outside = ts[(ts < 1) | (ts > rows)]
        if outside.size:
            t = int(outside[-1])
            raise TableExhaustedError(t, f"noise table covers t=1..{rows}, asked for t={t}")
        g = spec.table[ts - 1]
    scales = _step_scales(spec, ts)
    if scales is not None:
        g *= scales
    return g


def sample_noise(spec: NoiseSpec, t: int, stream: Optional[np.random.Generator]) -> np.ndarray:
    """One disturbance vector for step ``t``.

    Random kinds consume exactly ``spec.n`` uniforms from ``stream``;
    deterministic kinds ignore it. The caller is responsible for having the
    stream positioned at step ``t`` (see the module docstring).
    """
    return _rows(spec, np.array([t]), stream)[0]


def sample_noise_block(spec: NoiseSpec, T: int, stream: Optional[np.random.Generator]) -> np.ndarray:
    """Disturbances for steps 1..T as a (T, n) block.

    Row ``t - 1`` equals what ``sample_noise`` would produce at step ``t``
    for a stream positioned by the fixed consumption layout, because the
    block draws its ``T * n`` uniforms in the same order (up to rounding
    for a dense covariance factor, whose product BLAS may round
    differently for a single row). For a fresh ``substream(master_seed,
    r)`` the block is run ``r``'s noise in the engine, bit for bit.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    return _rows(spec, np.arange(1, T + 1), stream)


# Most noise values the engine's chunk buffers hold (steps * padded width * n): 8 MiB of
# doubles, half each for a chunk the worker transforms and the one stepped before it.
CHUNK_VALUES = 2**20
# Most values of the step-major stage of four steps (see ``NoiseChunks``): 512 KiB.
STAGE_VALUES = 2**16
# Philox calls one extra engine step costs (its fixed Python and kernel overhead, about
# 7-17 us at width 8 against about 2.4 us a call), which sets when tiling the runs pays.
STEP_CALLS = 4
# Most run keys converted to Python ints at once.
_KEY_SLICE = 2**10
# Parts of whole runs a random chunk is filled in, each transformed once filled, on the
# worker where that pays (see ``NoiseChunks``).
TRANSFORM_PARTS = 8
# The one thread that transforms noise alongside the Philox fill; it never fills.
_WORKER = ThreadPoolExecutor(1, thread_name_prefix="consensuslab-noise")
# Fewest uniforms each run's Philox call must draw per chunk for the worker to take the
# chunk's transform (see ``_overlaps``); long-horizon Gaussian tiles are narrowed to reach it.
OVERLAP_MIN_DRAW = 2**10


def _overlaps(spec: NoiseSpec, draw: int) -> bool:
    """Whether the worker transforms chunks of ``spec`` whose runs each draw ``draw`` uniforms in all.

    Only the Gaussian inverse CDF costs more per value than the Philox draw;
    the Rademacher and Cauchy maps cost a fraction of it, less than handing
    their parts over. The filling thread leaves the GIL free only inside each
    run's draw, so below ``OVERLAP_MIN_DRAW`` uniforms a draw the worker
    mostly waits for it, and whether the overlap gains or loses changes from
    one process to the next (measurements in CHANGES.md); ``NoiseChunks``
    tiles the runs so that each chunk draws that many.
    """
    return spec.kind == GAUSSIAN and draw >= OVERLAP_MIN_DRAW


@dataclass(eq=False)
class _Chunk:
    """A started chunk: its noise, step scales, (future, part) pairs sent to the worker, and held error."""

    block: Optional[np.ndarray] = None
    scales: Optional[np.ndarray] = None
    parts: list = field(default_factory=list)
    error: Optional[Exception] = None


def _stop(parts: list) -> None:
    """Drop the parts the worker has not started and wait for a running one."""
    wait([future for future, _ in parts if not future.cancel()])


class NoiseChunks:
    """Disturbances of steps 1..T for runs 0..m-1, drawn chunk by chunk and tile by tile.

    The module docstring sets out the geometry: chunks, stage, pad, tiles
    and the lookahead. The runs go through in ``tiles`` tiles of ``width``
    columns: tile ``i`` holds runs ``i * width ..`` and, in the last tile,
    zero-noise pad runs up to the width. Iterating yields one array per step
    of each tile in turn, T per tile, broadcastable against an (n, width)
    block of states: an (n, width) array for the random kinds, whose pad
    columns are zero, and an (n, 1) column shared by every run otherwise.
    An array is valid until the next one is taken, because the buffers are
    refilled in place.

    ``chunk_steps`` is the steps of a chunk, at most T. ``uniforms_drawn``,
    ``philox_calls`` (one per run and chunk), ``transform_parts`` (one per
    part) and ``buffer_bytes_peak`` (the chunks held at once plus the stage)
    count what the iteration did. ``fill_s`` times its Philox draws and
    ``transform_s`` the rest of each chunk on the filling thread: its share
    of the transform and its wait for the worker's. The engine reports them.
    """

    def __init__(self, spec: NoiseSpec, T: int, m: int, master_seed: int):
        self.spec = spec
        self.T = T
        n = spec.n
        dense = spec.kind == GAUSSIAN and spec._factor is not None and spec._factor.ndim == 2
        align = STEP_GROUP if dense else 4 // math.gcd(n, 4)
        # a chunk the worker transforms is started one ahead, it and the chunk stepped meanwhile
        # in half the budget each; the tiles below make each such chunk draw enough for the worker
        self._lookahead = _overlaps(spec, T * n)
        budget = CHUNK_VALUES // 2 if self._lookahead else CHUNK_VALUES

        def steps(width: int) -> int:
            return max(align, budget // (width * n) // align * align)

        def tiles(k: int) -> int:
            """Fewest equal tiles of the runs whose chunk holds ``k`` steps (one where none can)."""
            widest = budget // (n * max(1, -(-k // align)) * align) // WIDTH_PAD * WIDTH_PAD
            return -(-m // widest) if widest else 1

        self.width = padded_width(m)
        if spec.is_random:
            whole = tiles(T)
            if m * (-(-T // steps(self.width)) - 1) > STEP_CALLS * T * (whole - 1):
                self.width = padded_width(-(-m // whole))
            if self._lookahead:
                self.width = min(self.width, padded_width(-(-m // tiles(-(-OVERLAP_MIN_DRAW // n)))))
        self.chunk_steps = min(steps(self.width if spec.is_random else 1), T)
        self.tiles = max(1, -(-m // self.width))
        staged = spec.is_random and n < 8 and 4 * n * self.width <= STAGE_VALUES
        self._stage = np.empty((4, n, self.width)) if staged else None
        self._copies = 2 if dense else 1  # the dense covariance product writes a second chunk-sized array
        self.uniforms_drawn = 0
        self.philox_calls = 0
        self.buffer_bytes_peak = 0
        self.transform_parts = 0
        self.fill_s = 0.0
        self.transform_s = 0.0
        if spec.is_random:
            self._keys = run_keys(master_seed, m)
            self._bitgen = np.random.Philox(0)
            self._gen = np.random.Generator(self._bitgen)

    def _fill(self, block: np.ndarray, keys: np.ndarray, c0: int) -> None:
        """Uniforms of steps ``c0 + 1 ..`` of the runs with Philox ``keys`` (runs, 2) into ``block`` (runs, k, n)."""
        inner = {"counter": [c0 * self.spec.n // 4, 0, 0, 0], "key": None}
        state = {"bit_generator": "Philox", "state": inner, "buffer": [0, 0, 0, 0],
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for a in range(0, len(keys), _KEY_SLICE):
            for key, row in zip(keys[a : a + _KEY_SLICE].tolist(), block[a : a + _KEY_SLICE]):
                inner["key"] = key
                self._bitgen.state = state
                self._gen.random(out=row)
        self.uniforms_drawn += block.size
        self.philox_calls += len(keys)

    def _start(self, lo: int, c0: int, buf: Optional[np.ndarray]) -> _Chunk:
        """Start the chunk of steps ``c0 + 1 ..`` of the tile at run ``lo``, in ``buf`` for the random kinds.

        The runs are filled in up to ``TRANSFORM_PARTS`` consecutive parts;
        with the lookahead each part goes to the worker once filled, and
        otherwise it is transformed here right after its fill. An error is
        held in the chunk for ``_finish`` to raise, after the parts already
        handed over are stopped.
        """
        spec, n, W = self.spec, self.spec.n, self.width
        kk = min(self.chunk_steps, self.T - c0)
        ts = np.arange(c0 + 1, c0 + kk + 1)
        t0 = perf_counter()
        fill_s = 0.0
        chunk = _Chunk()
        try:
            if not spec.is_random:  # (1, kk, n), shared by every run
                chunk.block = _rows(spec, ts, None)[None]
            else:
                keys = self._keys[lo : lo + W]
                chunk.block = buf[: W * kk * n].reshape(W, kk, n)
                runs = chunk.block[: len(keys)]
                chunk.block[len(keys) :] = 0.0
                chunk.scales = _step_scales(spec, ts)
                parts = min(TRANSFORM_PARTS, len(keys))
                cuts = [len(keys) * i // parts for i in range(parts + 1)] if parts else []
                for a, b in zip(cuts, cuts[1:]):
                    t1 = perf_counter()
                    self._fill(runs[a:b], keys[a:b], c0)
                    fill_s += perf_counter() - t1
                    if self._lookahead:
                        chunk.parts.append((_WORKER.submit(_transform, spec, runs[a:b], chunk.scales), runs[a:b]))
                    else:
                        _transform(spec, runs[a:b], chunk.scales)
                self.transform_parts += parts
        except Exception as exc:
            _stop(chunk.parts)
            chunk.error = exc
        finally:
            self.fill_s += fill_s
            self.transform_s += perf_counter() - t0 - fill_s
        return chunk

    def _finish(self, chunk: _Chunk) -> np.ndarray:
        """The chunk's noise, once every part is transformed; raises the chunk's held error.

        The parts the worker has not started are taken back, last first, and
        transformed here, and the rest are waited for. No part is still
        being written when this returns or raises.
        """
        t0 = perf_counter()
        try:
            if chunk.error is not None:
                raise chunk.error
            # the worker runs its parts in order, so the unstarted ones are at the end
            while chunk.parts and chunk.parts[-1][0].cancel():
                _transform(self.spec, chunk.parts.pop()[1], chunk.scales)
            for future, _ in chunk.parts:
                future.result()
        finally:  # after an error, drop the parts not started and let a running one finish
            _stop(chunk.parts)
            self.transform_s += perf_counter() - t0
        return chunk.block

    def __iter__(self):
        spec, n, W, k, stage = self.spec, self.spec.n, self.width, self.chunk_steps, self._stage
        # A mapping of its own goes back to the OS when freed; a heap block would stay as a
        # hole that smaller allocations split, making peak RSS vary from run to run.
        size = 8 * W * k * n
        buffers = [np.frombuffer(mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)) if spec.is_random and size else None
                   for _ in range(2 if self._lookahead else 1)]
        plan = list(product(range(0, self.tiles * W, W), range(0, self.T, max(1, k))))
        ahead = None  # the chunk started before the one being stepped was used
        try:
            for i, (lo, c0) in enumerate(plan):
                block = self._finish(ahead if ahead is not None else self._start(lo, c0, buffers[0]))
                ahead = None
                # the next chunk starts before this one's steps with a lookahead, else after them
                if self._lookahead and i + 1 < len(plan):
                    ahead = self._start(*plan[i + 1], buffers[(i + 1) % 2])
                held = self._copies * (block.nbytes + (0 if ahead is None else ahead.block.nbytes))
                self.buffer_bytes_peak = max(self.buffer_bytes_peak, held + (0 if stage is None else stage.nbytes))
                kk = block.shape[1]
                if stage is None:
                    for j in range(kk):
                        yield block[:, j, :].T
                    continue
                for j in range(0, kk, 4):
                    rows = stage[: min(4, kk - j)]
                    rows[...] = block[:, j : j + 4, :].transpose(1, 2, 0)
                    yield from rows
        finally:  # closed early: no part of the chunk started ahead may still be written
            if ahead is not None:
                _stop(ahead.parts)


def epsilon_oscillator_sequence(T: int) -> np.ndarray:
    """Deterministic learning-rate sequence that sweeps [1/4, 3/4] forever.

    Starts at one half and moves by ``1/(10 t)`` per step, reversing
    direction whenever the next move would leave the band, so consecutive
    gaps are exactly ``1/(10 t)`` while the values stay inside [1/4, 3/4].
    Because the step sizes are harmonic, the sequence keeps re-approaching
    both band edges and its limit points fill the whole band; feeding it as
    a learning-rate schedule produces a state whose distribution never
    settles. Returns ``T + 1`` values, entry ``t`` being the rate for step
    ``t`` (entry 0 is the anchor value one half).
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    c = 0.1
    out = np.empty(T + 1)
    out[0] = 0.5
    w = 1.0
    for t in range(1, T + 1):
        out[t] = out[t - 1] + w * (c / t)
        nxt = c / (t + 1)
        if w > 0.0 and out[t] + nxt > 0.75:
            w = -1.0
        elif w < 0.0 and out[t] - nxt < 0.25:
            w = 1.0
    return out
