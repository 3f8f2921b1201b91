"""Seeded noise processes and special learning-rate constructions.

Randomness discipline
---------------------
Every random draw in the package comes from a counter-based Philox stream
(Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11). An
ensemble pass seeded with ``master_seed`` draws under one key,
``SeedSequence(master_seed).generate_state(2, np.uint64)``, the key of
``np.random.Philox(master_seed)``. The random kinds draw ``n`` values per
run and time step (deterministic kinds draw none): numpy's ziggurat
standard normals (Marsaglia & Tsang, J. Stat. Softw. 2000) for the
Gaussian kind, uniform doubles for the others. The value feeding
component ``i`` of run ``r`` at step ``t`` is value ``r * n + i`` of the
stream that starts from the counter ``(0, t, 0, 0)`` with nothing
buffered. So a run's noise is a pure function of ``(spec, T, master_seed,
r)``, whatever the number of sibling runs, the chunking or the thread that
draws it.

The simulation engine (``NoiseChunks``) draws step ``t`` of a pass with one
Philox call into a run-major ``(W, n)`` block, after setting the counter
through the generator's ``state``. ``W = padded_width(m)`` pads the ``m``
runs to a multiple of ``WIDTH_PAD``; the pad columns are runs ``m .. W -
1``, stepped like the others and never reported. A chunk holds ``k`` whole
steps, ``k * W * n`` at most half of ``CHUNK_VALUES`` (one step when even
that is too many values), cut into up to ``TRANSFORM_PARTS`` parts of whole
steps. A part is one task: draw its steps, then transform them, elementwise
(per ``WIDTH_PAD`` runs of a step for ``_correlate``). Every random chunk is
started one ahead, before the engine steps the chunk before it, in one of
two buffers, by handing each of its parts to the worker thread. When the
engine reaches a chunk, the stepping thread takes back the parts the worker
has not started, last first, runs them itself and waits for the rest. Each
thread draws with a Philox generator of its own under the pass's key, so no
byte depends on the thread; the draws, the ufuncs and ``matmul`` release
the GIL. The spec's Python code runs only on the stepping thread, when
the engine reaches a chunk: each step's ``time_scale``, once, and the
deterministic kinds' rows, one a step shared by every run. So any error of
a chunk is raised at its first step, and closing the iteration early stops
every part of the chunk ahead. A process forked after the worker started has no worker and takes
back every part.
Each step is copied once into an ``(n, W)`` stage, so the step kernel reads
its noise contiguously. Memory stays at one chunk budget and one stage
whatever the horizon.

``substream(master_seed, r)`` and ``sample_noise_block`` draw one run's
noise from its own ``SeedSequence`` spawn through the same draws and
transforms; they are not the engine's addressing.

The distributional transforms are explicit, so ports to other stacks can
match them distributionally:

* gaussian: the affine map ``mu + F z`` of the standard normals ``z``,
  where ``F F^T`` equals the requested covariance;
* rademacher: ``+1`` where the uniform is at least one half, else ``-1``;
* cauchy: ``scale * tan(pi * (u - 1/2))``.
"""

from __future__ import annotations

import mmap
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from .errors import TableExhaustedError

ZERO = "zero"
DECAYING = "decaying"
GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"
CAUCHY = "cauchy"
CUSTOM = "custom"

_KINDS = (ZERO, DECAYING, GAUSSIAN, RADEMACHER, CAUCHY, CUSTOM)
_RANDOM_KINDS = (GAUSSIAN, RADEMACHER, CAUCHY)

# the engine's addressing of the module docstring, as a run's summary.json states it
STREAM_PROVENANCE = ("philox(key=seed_sequence(master_seed), counter=(0, step, 0, 0))[run * n + component]"
                     " of standard_normal for gaussian noise, else of random")


def _covariance_factor(sigma: np.ndarray) -> np.ndarray:
    """Deterministic F with F @ F.T == sigma, tolerant of semidefinite input; indefinite input is refused."""
    try:
        return np.linalg.cholesky(sigma)  # succeeds only on a positive definite sigma
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(sigma)
        if w.min() < -1e-9:
            raise ValueError("covariance must be positive semidefinite") from None
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
            object.__setattr__(self, "mu", mu)
            object.__setattr__(self, "sigma", sig)
            F = _covariance_factor(sig)
            # a diagonal factor is kept as its diagonal: ``z * diag(F)`` equals ``z @ F.T`` bit for bit
            if not np.count_nonzero(F - np.diag(np.diagonal(F))):
                F = np.diagonal(F).copy()
                F = None if np.all(F == 1.0) else F
            object.__setattr__(self, "_factor", F)
        elif self.kind == CAUCHY:
            scale = 1.0 if self.scale is None else float(self.scale)
            if not (scale > 0.0):
                raise ValueError("cauchy scale must be positive")
            object.__setattr__(self, "scale", scale)
        elif self.kind == CUSTOM:
            if self.table is None:
                raise ValueError("custom noise needs a table")
            tab = np.asarray(self.table, dtype=float)
            if tab.ndim != 2 or tab.shape[1] != self.n or not np.isfinite(tab).all():
                raise ValueError(f"table must have shape (T, {self.n}) and finite entries")
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
    """Independent, reproducible stream for one run, from its own ``SeedSequence`` spawn.

    Distinct ``(master_seed, run)`` pairs give statistically independent
    streams; the same pair always gives the same stream, on every platform,
    because both the SeedSequence spawn and the Philox generator are fixed
    algorithms with no environmental entropy. The engine does not draw from
    it (see the module docstring).
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(run,))
    return np.random.Generator(np.random.Philox(ss))


# BLAS picks its kernels by the shape of a call, so the bytes of one row (or
# column) of a product depend on how many rows (columns) share the call. The
# engine's blocks have ``padded_width(m)`` runs, a multiple of ``WIDTH_PAD``:
# ``_correlate`` multiplies every ``WIDTH_PAD`` runs of a step in a call of their
# own, and the state block ``X`` in ``M @ X`` has that many columns, so a run's
# bytes do not depend on the ensemble width.
WIDTH_PAD = 8


def padded_width(m: int) -> int:
    """Columns of the engine's state block for ``m`` runs: the least multiple of ``WIDTH_PAD`` >= max(m, 1)."""
    return max(1, -(-m // WIDTH_PAD)) * WIDTH_PAD


def _correlate(z: np.ndarray, F: np.ndarray) -> np.ndarray:
    """``z @ F.T`` for a (steps, runs, n) block.

    With a multiple of ``WIDTH_PAD`` runs, every ``WIDTH_PAD`` runs of a
    step share one product of that shape, so a run's bytes depend on
    neither the chunk size nor the ensemble width; any other block (one
    run's, from ``sample_noise_block``) is one product.
    """
    k, runs, n = z.shape
    products = (-1, WIDTH_PAD, n) if runs % WIDTH_PAD == 0 else (1, k * runs, n)
    return (z.reshape(products) @ F.T).reshape(z.shape)


def _scaled(spec: NoiseSpec, ts: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g``, the (steps, runs, n) noise of steps ``ts``, times each step's ``time_scale`` in place: its one use."""
    if spec.time_scale is not None:
        g *= np.array([float(spec.time_scale(int(t))) for t in ts])[:, None, None]
    return g


def _draw(spec: NoiseSpec, stream: np.random.Generator, out: np.ndarray) -> None:
    """Fill ``out`` from ``stream`` in order: standard normals for the Gaussian kind, uniforms otherwise."""
    (stream.standard_normal if spec.kind == GAUSSIAN else stream.random)(out=out)


def _transform(spec: NoiseSpec, u: np.ndarray) -> np.ndarray:
    """Map a (steps, runs, n) block of ``_draw`` values to noise in place, before any ``time_scale``.

    This is the one transform: the engine's chunks and ``sample_noise_block``
    both go through it. It calls no Python code of the spec, so the engine
    may run it on its worker thread (see ``NoiseChunks``).
    """
    if spec.kind == GAUSSIAN:  # mu + F z, the mean added even where it is zero: 0.0 + -0.0 is +0.0
        if spec._factor is not None:
            if spec._factor.ndim == 1:
                u *= spec._factor
            else:
                u[...] = _correlate(u, spec._factor)
        u += spec.mu
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
    return u


def _rows(spec: NoiseSpec, ts: np.ndarray, stream: Optional[np.random.Generator]) -> np.ndarray:
    """Disturbances of the consecutive steps ``ts`` as a (len(ts), 1, n) block.

    Random kinds draw ``len(ts) * n`` values from ``stream`` in step order
    (see ``_draw``); deterministic kinds ignore it. Every public sampler is
    a view of this one function, and the engine's deterministic chunks are
    its rows.
    """
    k = len(ts)
    if spec.is_random:
        if stream is None:
            raise ValueError(f"{spec.kind} noise needs a random stream")
        g = np.empty((k, 1, spec.n))
        _draw(spec, stream, g)
        _transform(spec, g)
    elif spec.kind == ZERO:
        g = np.zeros((k, 1, spec.n))
    elif spec.kind == DECAYING:
        g = spec.rate ** ts.astype(float)[:, None, None] * np.ones((1, 1, spec.n))
    else:
        rows = spec.table.shape[0]
        outside = ts[(ts < 1) | (ts > rows)]
        if outside.size:
            t = int(outside[-1])
            raise TableExhaustedError(t, f"noise table covers t=1..{rows}, asked for t={t}")
        g = spec.table[ts - 1][:, None]
    return _scaled(spec, ts, g)


def sample_noise(spec: NoiseSpec, t: int, stream: Optional[np.random.Generator]) -> np.ndarray:
    """One disturbance vector for step ``t``.

    Random kinds draw exactly ``spec.n`` values from ``stream``: standard
    normals for the Gaussian kind, uniforms otherwise; deterministic kinds
    ignore it. The caller is responsible for having the stream positioned
    at step ``t``, ``(t - 1) * n`` such values into a run's ``substream``. A
    Gaussian stream is positioned by normals drawn: the ziggurat rejects a
    few of its 64-bit words, so no count of uniforms or words places it.
    """
    return _rows(spec, np.array([t]), stream)[0, 0]


def sample_noise_block(spec: NoiseSpec, T: int, stream: Optional[np.random.Generator]) -> np.ndarray:
    """Disturbances for steps 1..T as a (T, n) block.

    Row ``t - 1`` equals what ``sample_noise`` would produce at step ``t``
    for a stream positioned ``(t - 1) * n`` values in (normals for the
    Gaussian kind, uniforms otherwise), because the block draws its
    ``T * n`` values in the same order (up to rounding for a dense
    covariance factor, whose product BLAS may round differently for a
    single row).
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    return _rows(spec, np.arange(1, T + 1), stream)[:, 0]


# Most noise values the engine's chunk buffers hold (steps * padded width * n): 4 MiB of
# doubles, half each for the chunk stepped and the one started ahead of it. Twice this let
# many_runs' one block of 50000 runs reach 73.2 MB peak RSS (68.9 MB at this size) with no
# pass time to show for it (2 vCPUs, OpenBLAS on one thread).
CHUNK_VALUES = 2**19
# Parts of whole steps a random chunk is cut into, each drawn and transformed by whichever
# thread runs it (see ``NoiseChunks``).
TRANSFORM_PARTS = 8
# The one thread that runs parts of a chunk while the engine steps; it runs them in order.
_WORKER = ThreadPoolExecutor(1, thread_name_prefix="consensuslab-noise")


@dataclass(eq=False)
class _Chunk:
    """A started chunk: its steps, the random kinds' block and ``(future, (block, c0))`` pairs sent to the worker."""

    ts: np.ndarray
    block: Optional[np.ndarray] = None
    parts: list = field(default_factory=list)


def _stop(parts: list) -> None:
    """Drop the parts the worker has not started and wait for a running one."""
    wait([future for future, _ in parts if not future.cancel()])


class NoiseChunks:
    """Disturbances of steps 1..T for runs 0..m-1, drawn chunk by chunk.

    The module docstring sets out the addressing and the geometry: the
    pad, the chunks of whole steps and the chunk started ahead. Iterating
    yields one array per step, broadcastable against the engine's
    (n, width) block of states, ``width = padded_width(m)``: an
    (n, width) array for the random kinds, whose columns past ``m`` are the
    pad runs, and an (n, 1) column shared by every run otherwise. An array
    is valid until the next one is taken, because it is the stage, refilled
    in place.

    ``chunk_steps`` is the steps of a chunk, at most T. ``uniforms_drawn``
    (the values drawn, ``width * n`` per random step), ``philox_calls``
    (one per random step), ``transform_parts`` (one per part) and
    ``buffer_bytes_peak`` (the chunks held at once plus the stage) count
    what the iteration did, whichever thread drew. ``fill_s`` times the
    stepping thread's own draws and ``transform_s`` the rest of its noise
    work: starting chunks, its own transforms, its waits for the worker,
    ``time_scale`` and the deterministic rows. The engine reports them.
    """

    def __init__(self, spec: NoiseSpec, T: int, m: int, master_seed: int):
        self.spec = spec
        self.T = T
        self.width = padded_width(m)
        columns = self.width if spec.is_random else 1
        self.chunk_steps = min(T, max(1, CHUNK_VALUES // 2 // (columns * spec.n)))
        self._stage = np.empty((spec.n, columns))
        dense = spec.kind == GAUSSIAN and spec._factor is not None and spec._factor.ndim == 2
        self._copies = 2 if dense else 1  # the dense covariance product writes a second chunk-sized array
        self.uniforms_drawn = 0
        self.philox_calls = 0
        self.buffer_bytes_peak = 0
        self.transform_parts = 0
        self.fill_s = 0.0
        self.transform_s = 0.0
        if spec.is_random:  # one key for the pass, a bad seed refused here
            key = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
            # one generator for the stepping thread, one for the worker; each state counter (0, 0, 0, 0)
            gens = [np.random.Generator(np.random.Philox(key=key)) for _ in range(2)]
            self._mine, self._worker = [(gen, gen.bit_generator.state) for gen in gens]

    def _part(self, stream: tuple, block: np.ndarray, c0: int) -> float:
        """Draw steps ``c0 + 1 ..`` into ``block`` (steps, width, n) and transform them; returns the draw's seconds.

        ``stream`` is a generator and its state, of the thread that runs the
        part. Step ``t`` is one call from the counter ``(0, t, 0, 0)`` with
        nothing buffered, whatever the step before it drew.
        """
        gen, state = stream
        t0 = perf_counter()
        for t, rows in enumerate(block, c0 + 1):
            state["state"]["counter"][1] = t
            gen.bit_generator.state = state
            _draw(self.spec, gen, rows)
        drawn = perf_counter() - t0
        _transform(self.spec, block)
        return drawn

    def _start(self, c0: int, buf: Optional[np.ndarray]) -> _Chunk:
        """Start the chunk of steps ``c0 + 1 ..``, in ``buf`` for the random kinds.

        Random steps are cut into up to ``TRANSFORM_PARTS`` parts of whole
        steps, each handed to the worker; nothing is drawn here, and no
        Python code of the spec runs (see ``_finish``).
        """
        spec, n, W = self.spec, self.spec.n, self.width
        kk = min(self.chunk_steps, self.T - c0)
        chunk = _Chunk(np.arange(c0 + 1, c0 + kk + 1))
        if spec.is_random:
            t0 = perf_counter()
            chunk.block = buf[: kk * W * n].reshape(kk, W, n)
            parts = min(TRANSFORM_PARTS, kk)
            cuts = [kk * i // parts for i in range(parts + 1)]
            for a, b in zip(cuts, cuts[1:]):
                part = (chunk.block[a:b], c0 + a)
                chunk.parts.append((_WORKER.submit(self._part, self._worker, *part), part))
            self.uniforms_drawn += chunk.block.size
            self.philox_calls += kk
            self.transform_parts += parts
            self.transform_s += perf_counter() - t0
        return chunk

    def _finish(self, chunk: _Chunk) -> np.ndarray:
        """The chunk's noise, scaled by ``time_scale``; a deterministic chunk's ``_rows`` are computed here.

        The parts the worker has not started are taken back, last first, and
        run here with this thread's generator, and the rest are waited for.
        No part is still being written when this returns or raises.
        """
        t0 = perf_counter()
        fill_s = 0.0
        try:
            # the worker runs its parts in order, so the unstarted ones are at the end
            while chunk.parts and chunk.parts[-1][0].cancel():
                fill_s += self._part(self._mine, *chunk.parts.pop()[1])
            for future, _ in chunk.parts:
                future.result()
            if chunk.block is None:  # deterministic: (steps, 1, n), shared by every run
                return _rows(self.spec, chunk.ts, None)
            return _scaled(self.spec, chunk.ts, chunk.block)
        finally:  # after an error, drop the parts not started and let a running one finish
            _stop(chunk.parts)
            self.fill_s += fill_s
            self.transform_s += perf_counter() - t0 - fill_s

    def __iter__(self):
        spec, k, stage = self.spec, self.chunk_steps, self._stage
        # A mapping of its own goes back to the OS when freed; a heap block would stay as a
        # hole that smaller allocations split, making peak RSS vary from run to run.
        buffers = [np.frombuffer(mmap.mmap(-1, 8 * k * self.width * spec.n, flags=mmap.MAP_PRIVATE))
                   if spec.is_random and k else None for _ in range(2)]
        # chunk i in buffer i % 2
        started = (self._start(c0, buffers[i % 2]) for i, c0 in enumerate(range(0, self.T, max(1, k))))
        ahead = None
        try:
            ahead = next(started, None)
            while ahead is not None:
                block = self._finish(ahead)
                ahead = next(started, None)  # started before this chunk's steps
                ahead_bytes = 0 if ahead is None or ahead.block is None else ahead.block.nbytes  # last, or deterministic
                held = self._copies * (block.nbytes + ahead_bytes) + stage.nbytes
                self.buffer_bytes_peak = max(self.buffer_bytes_peak, held)
                for rows in block:  # (width, n), or (1, n) shared by every run
                    stage[...] = rows.T
                    yield stage
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
