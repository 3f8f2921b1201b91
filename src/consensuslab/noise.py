"""Seeded noise processes and special learning-rate constructions.

Randomness discipline
---------------------
Every random draw in the package comes from a counter-based Philox stream
keyed by ``(master_seed, run)`` through numpy's SeedSequence spawning, so a
run's stream never depends on how many sibling runs exist or on execution
order. Within one run the random kinds consume exactly ``n`` uniform
doubles per time step (deterministic kinds consume none), so the uniform
feeding component ``i`` of step ``t`` always sits at stream position
``(t - 1) * n + i``. The distributional transforms are explicit, so ports
to other stacks can match them distributionally:

* gaussian: inverse normal CDF of the uniform, then the affine map
  ``mu + F z`` where ``F F^T`` equals the requested covariance;
* rademacher: ``+1`` where the uniform is at least one half, else ``-1``;
* cauchy: ``scale * tan(pi * (u - 1/2))``.

Uniforms are clipped below at ``2**-54`` before the inverse normal CDF so a
zero draw (probability ``2**-53``) cannot produce an infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
            if np.max(np.abs(sig - sig.T)) > 1e-9:
                raise ValueError("covariance must be symmetric")
            if np.linalg.eigvalsh(sig).min() < -1e-9:
                raise ValueError("covariance must be positive semidefinite")
            object.__setattr__(self, "mu", mu)
            object.__setattr__(self, "sigma", sig)
            object.__setattr__(self, "_factor", _covariance_factor(sig))
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


def _transform(spec: NoiseSpec, u: np.ndarray) -> np.ndarray:
    """Map a (k, n) block of uniforms to (k, n) noise draws."""
    if spec.kind == GAUSSIAN:
        z = ndtri(np.clip(u, _U_FLOOR, None))
        return spec.mu + z @ spec._factor.T
    if spec.kind == RADEMACHER:
        return np.where(u >= 0.5, 1.0, -1.0)
    if spec.kind == CAUCHY:
        return spec.scale * np.tan(np.pi * (u - 0.5))
    raise AssertionError(spec.kind)


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
        g = _transform(spec, stream.random((k, spec.n)))
    elif spec.kind == ZERO:
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
    if spec.time_scale is not None:
        s = np.array([float(spec.time_scale(int(t))) for t in ts])
        g = g * s[:, None]
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
    block draws its ``T * n`` uniforms in the same order.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    return _rows(spec, np.arange(1, T + 1), stream)


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
