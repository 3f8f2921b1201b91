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
when even that is too many values). It mixes the seed into the
``SeedSequence`` pool once (``seed_pool``), derives a tile's run keys when
the tile's first chunk starts, in one vectorised pass of the run word's
round (``run_keys``, checked against numpy at the tile's first run), and
fills each run's rows of a run-major ``(width, k, n)`` buffer from one
reused generator, one Philox call per run and chunk, after writing the
run's key and counter in place through views of the generator's C state
(``_philox_views``, whose layout is checked once per pass). Then it
transforms the chunk (see below). When a run's row is shorter than a cache
line (``n < 8``), every four steps of the chunk are copied into a
step-major ``(4, n, width)`` stage, so a step reads its noise contiguously.
Deterministic kinds compute their rows chunk by chunk and share them
between runs. Memory stays at one chunk budget (``CHUNK_VALUES``), one
stage and one tile's keys whatever the horizon and the ensemble size, and
run ``r``'s rows equal ``sample_noise_block(spec, T, substream(master_seed,
r))`` bit for bit whatever the chunk size, the tiling or the ensemble
width.

The runs of a random chunk are filled in ``TRANSFORM_PARTS`` consecutive
parts, each handed to one worker thread once filled. Every chunk is started
one ahead, before the engine steps the chunk before it, in one of two
buffers of half ``CHUNK_VALUES``, which sizes the geometry below. When the
engine reaches a chunk, the filling thread takes back the parts the worker
has not started, last first, and waits for the rest. ``ndtri``, the ufuncs
and ``matmul`` release the GIL; re-keying Philox holds it once per run, so
only the filling thread draws. The transform is elementwise (per run for
``_correlate``) with each step's ``time_scale`` evaluated once, on the
filling thread, so no byte depends on the thread. Deterministic rows call
the spec's Python code, so they are computed there too. An error in
starting a chunk (its fill, its rows, ``time_scale`` or a part's transform)
is raised as it was at the chunk's first step, and closing the iteration
early stops every part of the chunk ahead. A process forked after the
worker started has no worker and takes back every part.

The width is the run count padded with zero-noise runs to a multiple of
``WIDTH_PAD`` (``padded_width(m)``), one tile. Random runs may instead go
through in ``t`` equal column tiles of width ``W = padded_width(ceil(m /
t))``, each stepped through the whole horizon in turn. One rule picks
``t``: the least cost ``m * ceil(T / k) + STEP_CALLS * T * ceil(m / W)``,
Philox calls plus the tile-steps priced in calls, with ``k`` the chunk
steps at width ``W``, ties to the fewest tiles. At ``n < 8`` a tile's four
steps must fit the stage's ``STAGE_VALUES``, which bounds ``t`` below; it
is bounded above by the fewest tiles whose whole horizon is one chunk
(past it more tiles only add steps), or, where no tile of ``WIDTH_PAD``
runs holds a whole horizon, by tiles of ``WIDTH_PAD`` runs.

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

import ctypes
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


@dataclass(frozen=True)
class SeedPool:
    """A master seed's ``SeedSequence`` pool mixed with its own words, before any run's word.

    ``mixer`` holds the four pool words as 1-element uint32 arrays and
    ``hash_a`` the xor constant of the next hashmix, the run word's first.
    Nothing here depends on the runs, so an ensemble pass builds it once
    (``seed_pool``) and ``run_keys`` reads it per tile.
    """

    seed: int
    mixer: tuple
    hash_a: int


def seed_pool(master_seed: int) -> SeedPool:
    """The pool of ``master_seed``: its 32-bit words, zero-padded to the pool size, mixed in.

    A negative seed raises ``ValueError("expected non-negative integer")``,
    numpy's message.
    """
    seed = operator.index(master_seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
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
    return SeedPool(seed, tuple(mixer), next(hash_a)[0])


def run_keys(master_seed, count: int, first: int = 0) -> np.ndarray:
    """Philox keys of runs ``first .. first + count - 1`` as a (count, 2) uint64 array.

    Row ``i`` is ``SeedSequence(master_seed, spawn_key=(first + i,))
    .generate_state(2, np.uint64)``, the key of ``substream(master_seed,
    first + i)``, computed for every run at once with numpy's hash on
    uint32 arrays. ``master_seed`` is a seed or its ``seed_pool``. The
    entropy is the seed's 32-bit words, zero-padded to the pool size, then
    the run index as one word; only that last word differs between runs, so
    only its round is computed here. Row 0 is checked against numpy itself.
    """
    pool = master_seed if isinstance(master_seed, SeedPool) else seed_pool(master_seed)
    if not (0 <= first and 0 <= count and first + count < 2**32):
        raise ValueError(f"run count must keep the runs in [0, 2**32), got {count} from run {first}")

    # The run word's mixing round, then generate_state(2, np.uint64): word i
    # of the output hashes pool word i, and words (0, 1), (2, 3) are the
    # low and high halves of the two keys.
    runs = np.arange(first, first + count, dtype=np.uint32)
    keys = np.empty((count, 2), dtype=np.uint64)
    out = keys.view(np.uint32)
    swap = int(sys.byteorder == "big")
    hash_a, hash_b = _hash_consts(pool.hash_a, _MULT_A), _hash_consts(_INIT_B, _MULT_B)
    for i in range(_POOL):
        out[:, i ^ swap] = _hashmix(_mix(pool.mixer[i], _hashmix(runs, next(hash_a))), next(hash_b))

    ref = np.random.SeedSequence(pool.seed, spawn_key=(first,)).generate_state(2, np.uint64)
    if count and not np.array_equal(keys[0], ref):
        raise AssertionError(f"vectorised SeedSequence hash disagrees with numpy at run {first}")
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
# doubles, half each for the chunk stepped and the one started ahead of it.
CHUNK_VALUES = 2**20
# Most values of the step-major stage of four steps (see ``NoiseChunks``): 512 KiB.
STAGE_VALUES = 2**16
# Philox calls the tile rule prices a tile-step at (see the module docstring). Measured on the
# random catalog cases (2 vCPUs, BLAS on one thread, medians of 9 alternating passes): a call
# more tiles save took 2.1-4.7 us of fill re-keyed through the state views (1.3-5.6 us through
# numpy's ``state`` setter in the same alternation), a tile-step they add 6-16 us with a constant
# schedule and 35-36 us, 7-17 calls, with epsilon-oscillator's varying one, which each tile
# queries again. A step is priced near the varying schedule's, so tiles must save about as many
# calls as its steps cost.
STEP_CALLS = 12
# Most run keys converted to Python ints at once.
_KEY_SLICE = 2**10
# Parts of whole runs a random chunk is filled in, each transformed on the worker once filled
# (see ``NoiseChunks``).
TRANSFORM_PARTS = 8
# The one thread that transforms noise alongside the Philox fill; it never fills.
_WORKER = ThreadPoolExecutor(1, thread_name_prefix="consensuslab-noise")


@dataclass(eq=False)
class _Chunk:
    """A started chunk: its noise, step scales, (future, part) pairs sent to the worker, and held error."""

    block: Optional[np.ndarray] = None
    scales: Optional[np.ndarray] = None
    parts: list = field(default_factory=list)
    error: Optional[Exception] = None


class _PhiloxHead(ctypes.Structure):
    """The head of numpy's C ``philox_state``: pointers to the counter and key, then ``buffer_pos``."""

    _fields_ = [("ctr", ctypes.c_void_p), ("key", ctypes.c_void_p), ("buffer_pos", ctypes.c_int)]


def _philox_views(bitgen: np.random.Philox) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views of ``bitgen``'s key (2 words), counter (4 words) and ``buffer_pos``, counter words 1-3 zeroed.

    Writing a key, a counter ``c`` in word 0 and ``buffer_pos = 4`` does
    what the ``state`` setter does with them. The layout is checked: the
    head and the counter and key it points to must lie inside ``bitgen``
    before anything is read through the pointers, and a sentinel set
    through the ``state`` setter must read back through the views; anything
    else raises ``AssertionError``.
    """
    lo = id(bitgen)
    hi = lo + bitgen.__sizeof__()  # the object's own bytes; ``sys.getsizeof`` adds the GC header before them
    addr = bitgen.ctypes.state_address
    head = _PhiloxHead.from_address(addr) if lo <= addr <= hi - ctypes.sizeof(_PhiloxHead) else None
    if head is None or not (head.ctr and head.key and lo <= head.ctr <= hi - 32 and lo <= head.key <= hi - 16):
        raise AssertionError(f"{type(bitgen).__name__} does not hold numpy's Philox state layout")
    key = np.ctypeslib.as_array((ctypes.c_uint64 * 2).from_address(head.key))
    ctr = np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(head.ctr))
    pos = np.ctypeslib.as_array((ctypes.c_int * 1).from_address(addr + _PhiloxHead.buffer_pos.offset))
    # every byte of every word unlike a fresh generator's
    sentinel = {"key": [0x0123456789ABCDEF, 0xFEDCBA9876543210],
                "counter": [0x1122334455667788, 0x99AABBCCDDEEFF01, 0x2143658709BADCFE, 0xEFCDAB8967452301]}
    bitgen.state = {"bit_generator": "Philox", "state": sentinel, "buffer": [0] * 4, "buffer_pos": 3,
                    "has_uint32": 0, "uinteger": 0}
    if (key.tolist(), ctr.tolist(), int(pos[0])) != (sentinel["key"], sentinel["counter"], 3):
        raise AssertionError("numpy's Philox state does not read back through its views")
    ctr[1:] = 0
    return key, ctr, pos


def _stop(parts: list) -> None:
    """Drop the parts the worker has not started and wait for a running one."""
    wait([future for future, _ in parts if not future.cancel()])


class NoiseChunks:
    """Disturbances of steps 1..T for runs 0..m-1, drawn chunk by chunk and tile by tile.

    The module docstring sets out the geometry: chunks, stage, pad, tiles
    and the chunk started ahead. The runs go through in ``tiles`` tiles of
    ``width`` columns, the width of least cost in Philox calls and
    tile-steps (the module docstring's one rule): tile ``i`` holds runs
    ``i * width ..`` and, in the last tile, zero-noise pad runs up to the
    width. A tile's run keys are derived when its first chunk starts, so
    the memory is one chunk budget, one stage and one tile's keys whatever
    the horizon and the ensemble size. Iterating yields one array per step
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
        budget = CHUNK_VALUES // 2  # for the chunk stepped and the one started ahead

        def steps(width: int) -> int:
            return max(align, budget // (width * n) // align * align)

        self.width = padded_width(m)
        if spec.is_random:
            # the tile counts from the stage's bound (a tile's four steps fit it at n < 8) to the
            # fewest whose whole horizon is one chunk, or whose tiles are WIDTH_PAD runs
            whole = budget // (n * -(-max(T, 1) // align) * align) // WIDTH_PAD * WIDTH_PAD
            least = -(-m // (STAGE_VALUES // (4 * n) // WIDTH_PAD * WIDTH_PAD)) if n < 8 else 1
            counts = range(least, max(least, -(-m // max(whole, WIDTH_PAD))) + 1)
            self.width = min((padded_width(-(-m // t)) for t in counts),
                             key=lambda W: m * -(-T // steps(W)) + STEP_CALLS * T * -(-m // W))
        self.chunk_steps = min(steps(self.width if spec.is_random else 1), T)
        self.tiles = max(1, -(-m // self.width))
        self._stage = np.empty((4, n, self.width)) if spec.is_random and n < 8 else None
        self._copies = 2 if dense else 1  # the dense covariance product writes a second chunk-sized array
        self.uniforms_drawn = 0
        self.philox_calls = 0
        self.buffer_bytes_peak = 0
        self.transform_parts = 0
        self.fill_s = 0.0
        self.transform_s = 0.0
        if spec.is_random:
            # the seed mixed once for every tile's keys, a bad seed refused here; no keys yet
            self._pool, self._runs, self._keys = seed_pool(master_seed), m, None
            self._bitgen = np.random.Philox(0)
            self._gen = np.random.Generator(self._bitgen)
            self._key, self._ctr, self._pos = _philox_views(self._bitgen)

    def _fill(self, block: np.ndarray, keys: np.ndarray, c0: int) -> None:
        """Uniforms of steps ``c0 + 1 ..`` of the runs with Philox ``keys`` (runs, 2) into ``block`` (runs, k, n).

        Each run is written into the generator's state views: its key, the
        counter ``c0 * n / 4`` and an empty buffer, since a horizon's last
        chunk may end part-way through a block and leave the rest buffered.
        """
        key, ctr, pos, random = self._key, self._ctr, self._pos, self._gen.random
        count = c0 * self.spec.n // 4
        for a in range(0, len(keys), _KEY_SLICE):
            for (k0, k1), row in zip(keys[a : a + _KEY_SLICE].tolist(), block[a : a + _KEY_SLICE]):
                key[0] = k0
                key[1] = k1
                ctr[0] = count
                pos[0] = 4
                random(out=row)
        self.uniforms_drawn += block.size
        self.philox_calls += len(keys)

    def _start(self, lo: int, c0: int, buf: Optional[np.ndarray]) -> _Chunk:
        """Start the chunk of steps ``c0 + 1 ..`` of the tile at run ``lo``, in ``buf`` for the random kinds.

        Random runs are filled in up to ``TRANSFORM_PARTS`` parts, each
        handed to the worker once filled. An error is held in the chunk for
        ``_finish`` to raise, after the parts handed over are stopped.
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
                keys = run_keys(self._pool, min(W, self._runs - lo), lo) if c0 == 0 else self._keys
                self._keys = None if c0 + kk == self.T else keys  # kept from a tile's first chunk to its last
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
                    chunk.parts.append((_WORKER.submit(_transform, spec, runs[a:b], chunk.scales), runs[a:b]))
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
        buffers = [np.frombuffer(mmap.mmap(-1, 8 * W * k * n, flags=mmap.MAP_PRIVATE)) if spec.is_random and k else None
                   for _ in range(2)]
        plan = product(range(0, self.tiles * W, W), range(0, self.T, max(1, k)))
        started = (self._start(lo, c0, buffers[i % 2]) for i, (lo, c0) in enumerate(plan))  # chunk i in buffer i % 2
        ahead = None
        try:
            ahead = next(started, None)
            while ahead is not None:
                block = self._finish(ahead)
                ahead = next(started, None)  # started before this chunk's steps
                ahead_bytes = 0 if ahead is None or ahead.block is None else ahead.block.nbytes  # None: start failed
                held = self._copies * (block.nbytes + ahead_bytes) + (0 if stage is None else stage.nbytes)
                self.buffer_bytes_peak = max(self.buffer_bytes_peak, held)
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
