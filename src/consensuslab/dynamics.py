"""Step maps and trajectory simulation for the learning-dynamics families.

Five families share one engine:

* ``BASE``: deterministic averaging plus feedback toward a known target.
* ``NOISY_FEEDBACK``: the same with a disturbance inside the feedback.
* ``PURE_NOISE_FEEDBACK``: feedback carries only the disturbance.
* ``NONLINEAR``: the feedback passes through a componentwise learning
  function instead of a fixed rate.
* ``AVERAGE``: feedback toward the current population mean, so the
  consensus value is endogenous.

Every family advances by one update, ``X_t = M X_{t-1} + feedback``,
written once in ``_step``; the engine and the public ``step_*`` functions
are views of it. The step functions are pure and broadcast over a trailing
run axis: the state may be shape ``(n,)`` or ``(n, m)``, and a disturbance
of shape ``(n,)`` is shared by every run.

There is one simulation path. ``simulate_ensemble`` steps ``m`` seeded
runs in one pass and returns both the sample path of run 0 (states and
per-step diagnostics) and the ``m`` terminal states, a sample of the law
of the state. ``simulate`` is its ``m = 1`` view. Simulation is
deterministic given ``(spec, T, seed)``; every run's randomness is
addressed by ``(master_seed, run_index, step)`` only, so results never
depend on execution order or batching.
"""

from __future__ import annotations

import enum
import time
from contextlib import closing, suppress
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .conditions import nonlinear_rho
from .errors import InconsistentDeclarationError, ScheduleError
from .matrices import averaging_map, contraction_factor, dobrushin, entries_of
# sample_noise_block and substream are unused here; bench/tracing.py wraps them by name in this module
from .noise import NoiseChunks, NoiseSpec, sample_noise_block, substream
from .schedules import Constant, Table, as_schedule, matrix_at, rates_at, walk


class ModelFamily(enum.Enum):
    BASE = "base"
    NOISY_FEEDBACK = "noisy_feedback"
    PURE_NOISE_FEEDBACK = "pure_noise_feedback"
    NONLINEAR = "nonlinear"
    AVERAGE = "average"


_TARGETED = (ModelFamily.BASE, ModelFamily.NOISY_FEEDBACK)


@dataclass(frozen=True, eq=False)
class LearningFunction:
    """Componentwise feedback map with optional declared derivative range.

    ``fn`` must be vectorized over numpy arrays and satisfy ``fn(0) == 0``
    exactly, so a synchronized state stays put. ``deriv_inf``/``deriv_sup``
    are declarations about the derivative over the working interval; the
    condition checkers audit them against ``derivative`` on a sample grid.
    Functions without a usable derivative (discontinuous steps, say) leave
    all three unset and are rejected by the hypothesis checkers while still
    being simulatable.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None
    deriv_inf: Optional[float] = None
    deriv_sup: Optional[float] = None
    name: str = ""

    def __post_init__(self):
        if float(self.fn(0.0)) != 0.0:
            raise ValueError("learning function must vanish at zero")
        if (self.deriv_inf is None) != (self.deriv_sup is None):
            raise ValueError("declare both derivative bounds or neither")
        if self.deriv_inf is not None and self.deriv_inf > self.deriv_sup:
            raise ValueError("deriv_inf must not exceed deriv_sup")

    def __call__(self, u):
        return self.fn(u)

    @property
    def has_declared_bounds(self) -> bool:
        return self.deriv_inf is not None


def linear_learning(slope: float) -> LearningFunction:
    """f(u) = slope * u, the fixed-rate special case."""
    s = float(slope)
    return LearningFunction(
        fn=lambda u: s * np.asarray(u, dtype=float),
        derivative=lambda u: np.full_like(np.asarray(u, dtype=float), s),
        deriv_inf=s,
        deriv_sup=s,
        name=f"linear({s})",
    )


def scaled_tanh_learning(scale: float = 0.5, bound: float = 3.0) -> LearningFunction:
    """f(u) = scale * tanh(u), bounds declared over [-bound, bound]."""
    s = float(scale)
    b = float(bound)
    if s <= 0 or b <= 0:
        raise ValueError("scale and bound must be positive")
    return LearningFunction(
        fn=lambda u: s * np.tanh(u),
        derivative=lambda u: s * (1.0 - np.tanh(u) ** 2),
        deriv_inf=s * (1.0 - np.tanh(b) ** 2),
        deriv_sup=s,
        name=f"scaled_tanh({s}, bound={b})",
    )


def scaled_sign_learning(step: float) -> LearningFunction:
    """f(u) = step * sign(u). No derivative exists, so no bounds are declared."""
    s = float(step)
    return LearningFunction(fn=lambda u: s * np.sign(u), name=f"scaled_sign({s})")


LearningFunctions = Union[LearningFunction, Sequence[LearningFunction]]


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Declarative description of one dynamics scenario.

    ``schedule_A`` and ``schedule_E`` map a step index ``t >= 1`` to the
    weights matrix and learning rates used in that step; a ``Constant`` or
    ``Table`` value that ``schedules.walk`` refuses is a ``ValueError`` here. ``include_target``
    only matters for the nonlinear family and selects whether the feedback
    argument carries the target (otherwise only the disturbance enters).
    """

    family: ModelFamily
    n: int
    schedule_A: Callable[[int], object]
    x0: np.ndarray
    schedule_E: Optional[Callable[[int], object]] = None
    sigma_bar: Optional[float] = None
    noise: Optional[NoiseSpec] = None
    learning_fn: Optional[LearningFunctions] = None
    include_target: bool = True

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.n,):
            raise ValueError(f"x0 must have shape ({self.n},)")
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be finite")
        object.__setattr__(self, "x0", x0)
        noise = self.noise if self.noise is not None else NoiseSpec.zero(self.n)
        if noise.n != self.n:
            raise ValueError(f"noise dimension {noise.n} does not match n={self.n}")
        object.__setattr__(self, "noise", noise)
        object.__setattr__(self, "schedule_A", as_schedule(self.schedule_A))

        fam = self.family
        if fam is ModelFamily.NONLINEAR:
            if self.learning_fn is None:
                raise ValueError("nonlinear family needs a learning function")
            if self.schedule_E is not None:
                raise ValueError("nonlinear family takes a learning function, not rate schedules")
            fns = self.learning_fn
            if not isinstance(fns, LearningFunction):
                fns = tuple(fns)
                if len(fns) != self.n:
                    raise ValueError(f"need one learning function per agent ({self.n})")
                object.__setattr__(self, "learning_fn", fns)
        else:
            if self.schedule_E is None:
                raise ValueError(f"{fam.value} family needs a learning-rate schedule")
            object.__setattr__(self, "schedule_E", as_schedule(self.schedule_E))
            if self.learning_fn is not None:
                raise ValueError("learning functions belong to the nonlinear family")

        needs_target = fam in _TARGETED or (fam is ModelFamily.NONLINEAR and self.include_target)
        if needs_target and self.sigma_bar is None:
            raise ValueError(f"{fam.value} family needs sigma_bar")
        if not needs_target and self.sigma_bar is not None:
            raise ValueError(f"{fam.value} family has no consensus target; drop sigma_bar")
        if self.sigma_bar is not None:
            object.__setattr__(self, "sigma_bar", float(self.sigma_bar))
        if fam is ModelFamily.BASE and noise.kind != "zero":
            raise ValueError("base family is deterministic; use zero noise")
        # a Constant's or a Table's values are known now: a bad one is refused here, not at its step
        for sched, at in ((self.schedule_A, matrix_at), (self.schedule_E, rates_at)):
            t0, count = (sched.t0, len(sched)) if isinstance(sched, Table) else (1, int(isinstance(sched, Constant)))
            try:
                for t in range(t0, t0 + count):
                    at(sched, t, self.n)
            except ScheduleError as exc:
                raise ValueError(str(exc)) from exc

    # Convenience constructors mirror how scenarios are usually written; ``__post_init__`` converts the fields.

    @classmethod
    def base(cls, A, eps, sigma_bar: float, x0) -> "ModelSpec":
        return cls(ModelFamily.BASE, np.shape(x0)[0], A, x0, schedule_E=eps, sigma_bar=sigma_bar)

    @classmethod
    def noisy(cls, A, eps, sigma_bar: float, noise: NoiseSpec, x0) -> "ModelSpec":
        return cls(ModelFamily.NOISY_FEEDBACK, np.shape(x0)[0], A, x0, schedule_E=eps, sigma_bar=sigma_bar, noise=noise)

    @classmethod
    def pure_noise(cls, A, eps, noise: NoiseSpec, x0) -> "ModelSpec":
        return cls(ModelFamily.PURE_NOISE_FEEDBACK, np.shape(x0)[0], A, x0, schedule_E=eps, noise=noise)

    @classmethod
    def nonlinear(cls, A, learning_fn, x0, sigma_bar: Optional[float] = None,
                  noise: Optional[NoiseSpec] = None) -> "ModelSpec":
        return cls(ModelFamily.NONLINEAR, np.shape(x0)[0], A, x0, sigma_bar=sigma_bar, noise=noise,
                   learning_fn=learning_fn, include_target=sigma_bar is not None)

    @classmethod
    def average(cls, A, eps, noise: NoiseSpec, x0) -> "ModelSpec":
        return cls(ModelFamily.AVERAGE, np.shape(x0)[0], A, x0, schedule_E=eps, noise=noise)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States of one run plus per-step diagnostics.

    ``states`` has one row per time 0..T unless the run was asked to keep
    only the terminal state, in which case it has a single row and
    ``full_states`` is False. ``err_inf`` is the sup-distance to the target
    (NaN when the family has none), ``osc`` the state spread, and ``rho``
    the per-step contraction figure of the family (NaN at t=0 and whenever
    no figure applies).
    """

    states: np.ndarray
    err_inf: np.ndarray
    osc: np.ndarray
    rho: np.ndarray
    sigma_bar: Optional[float]
    full_states: bool = True

    @property
    def horizon(self) -> int:
        return self.err_inf.shape[0] - 1

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True, eq=False)
class EnsembleSample:
    """Terminal states of m independent seeded runs, plus run 0's path.

    ``run0`` is the full trajectory of run 0 (states and per-step
    diagnostics) from the same engine pass, so its terminal row is
    ``terminal_states[0]``. ``snapshots`` maps requested intermediate times
    to (m, n) state blocks; ``mean_err_inf`` is the ensemble mean of the
    sup-error per step when it was tracked. ``engine`` holds the pass's
    counts: ``runs``, ``steps``, and ``uniforms_drawn``,
    ``philox_calls``, ``transform_parts``, ``chunk_steps`` and
    ``noise_buffer_bytes_peak`` as ``noise.NoiseChunks`` counts them.
    ``timing`` holds its seconds per layer: ``fill_s`` (the Philox draws
    the stepping thread made itself), ``transform_s`` (the rest of its
    noise work: starting chunks, its own transforms, each with its part's
    transposed write into the chunk, or the deterministic disturbances,
    and its waits for the worker thread),
    ``observe_s`` (recording run 0, the error means and the snapshots) and
    ``step_s`` (the rest: the step kernel and its set-up; it copies no
    noise, since each step reads its chunk's slot where it lies).
    """

    terminal_states: np.ndarray
    t_final: int
    master_seed: int
    run0: Trajectory
    engine: dict
    timing: dict = field(default_factory=dict)
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)
    mean_err_inf: Optional[np.ndarray] = None

    @property
    def m(self) -> int:
        return self.terminal_states.shape[0]

    @property
    def n(self) -> int:
        return self.terminal_states.shape[1]

    def to_empirical(self, t: Optional[int] = None, centered_scaled: bool = False):
        """View the terminal block (or a snapshot) as a stats sample."""
        from .stats import EmpiricalSample

        if t is None or t == self.t_final:
            pts, tf = self.terminal_states, self.t_final
        else:
            pts, tf = self.snapshots[t], t
        return EmpiricalSample(points=pts, t_final=tf, centered_scaled=centered_scaled)


def _state(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("state must be a vector or an (n, m) block")
    return x


def _apply_learning(f: LearningFunctions, u: np.ndarray) -> np.ndarray:
    if isinstance(f, LearningFunction):
        return f(u)
    out = np.empty_like(u)
    for i, fi in enumerate(f):
        out[i] = fi(u[i])
    return out


def _step(M, X, e, f, sigma_bar, g, average: bool, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The one update of every family: ``X_t = M X_{t-1} + feedback``.

    ``X`` is an (n, m) block, ``e`` the per-agent rates and ``g`` a
    disturbance broadcastable against ``X`` (None when the family has
    none). The reference is ``sigma_bar``, ``g`` or ``sigma_bar + g``; the
    feedback is ``e (ref - X)``, ``f(ref - X)`` for a learning function
    ``f``, or ``e g`` for the average family, whose ``M`` is the averaging
    map of ``(A, e)``. The expressions are kept in this exact form (not
    folded into ``(A - E) X``) so every family reproduces its bytes; the
    feedback is formed in ``ref - X`` and added into the product, both in
    place, which rounds as the expression does.
    The product goes into ``out`` where given, a block the shape of ``X``
    that is not ``X``, and into a new array otherwise.
    """
    Y = np.matmul(M, X, out=out)
    if average:
        Y += e[:, None] * g
        return Y
    diff = (sigma_bar if g is None else g if sigma_bar is None else sigma_bar + g) - X
    Y += np.multiply(e[:, None], diff, out=diff) if f is None else _apply_learning(f, diff)
    return Y


def _view(M, eps, f, sigma_bar, gamma, x, average: bool = False) -> np.ndarray:
    """Apply ``_step`` to a state vector or to an (n, m) block of runs.

    A shared ``(n,)`` disturbance is lifted to a column so it applies to
    every run, exactly as the engine applies a noise vector shared by runs.
    """
    x = _state(x)
    e = None if eps is None else np.asarray(eps, dtype=float)
    g = None if gamma is None else np.asarray(gamma, dtype=float)
    if g is not None and g.ndim == 1:
        g = g[:, None]
    return _step(M, x.reshape(len(x), -1), e, f, sigma_bar, g, average).reshape(x.shape)


def step_base(A, eps, sigma_bar: float, x) -> np.ndarray:
    """One deterministic feedback step: A x + E (target - x)."""
    return _view(entries_of(A), eps, None, sigma_bar, None, x)


def step_noisy(A, eps, sigma_bar: float, gamma, x) -> np.ndarray:
    """Feedback step with a disturbed target: A x + E (target + gamma - x)."""
    return _view(entries_of(A), eps, None, sigma_bar, gamma, x)


def step_pure_noise(A, eps, gamma, x) -> np.ndarray:
    """Feedback step whose reference signal is the disturbance itself."""
    return _view(entries_of(A), eps, None, None, gamma, x)


def step_nonlinear(A, f: LearningFunctions, sigma_bar: Optional[float], gamma, x) -> np.ndarray:
    """Nonlinear feedback step: A x + f(target + gamma - x).

    Pass ``sigma_bar=None`` for the target-free form, where only the
    disturbance drives the feedback.
    """
    return _view(entries_of(A), None, f, sigma_bar, gamma, x)


def step_average(A, eps, gamma, x) -> np.ndarray:
    """Mean-feedback step: B x + E gamma with B the averaging map of (A, E)."""
    e = np.asarray(eps, dtype=float)
    return _view(averaging_map(A, e).entries, e, None, None, gamma, x, average=True)


def _schedule(spec: ModelSpec, T: int):
    """Yield each step's ``(a_t, e_t, M_t, rho_t)`` for t = 1..T, as ``schedules.walk`` reads the schedules.

    ``e_t`` is None for the nonlinear family. ``M_t`` is the averaging map
    of ``(a_t, e_t)`` for the average family and ``a_t`` otherwise;
    ``rho_t`` is its Dobrushin coefficient, the worst-case nonlinear figure
    (NaN where a learning function declares no derivative range) or the
    contraction factor of ``(a_t, e_t)``, reused while those repeat.
    """
    step = None
    for a, e in walk(spec.schedule_A, spec.schedule_E, 1, T, spec.n):
        if step is None or a is not step[0] or e is not step[1]:
            M, rho = a, np.nan
            if spec.family is ModelFamily.AVERAGE:
                M = averaging_map(a, e).entries
                rho = dobrushin(M)
            elif spec.family is not ModelFamily.NONLINEAR:
                rho = contraction_factor(a, e)
            else:
                with suppress(InconsistentDeclarationError):  # no declared derivative range: NaN
                    rho = nonlinear_rho(spec.learning_fn, a)
            step = (a, e, M, rho)
        yield step


def model_rho_sequence(spec: ModelSpec, T: int) -> np.ndarray:
    """Per-step contraction figures rho_1..rho_T of a model's schedules.

    Raises ``InconsistentDeclarationError`` where no figure applies.
    """
    rho = np.fromiter((r for *_, r in _schedule(spec, T)), dtype=float, count=T)
    if np.isnan(rho).any():
        raise InconsistentDeclarationError("learning function declares no derivative bounds")
    return rho


def simulate(spec: ModelSpec, T: int, seed: int, keep_states: bool = True) -> Trajectory:
    """One trajectory of length T, deterministic given (spec, T, seed).

    This is run 0 of an ensemble of size one (``simulate_ensemble(spec, T,
    1, seed).run0``), so its noise is run 0's of any ensemble seeded with
    ``seed``. With ``keep_states=False`` only the terminal state is kept
    (diagnostics are still full length).
    """
    run0 = simulate_ensemble(spec, T, 1, seed).run0
    return run0 if keep_states else replace(run0, states=run0.states[-1:].copy(), full_states=False)


def simulate_ensemble(
    spec: ModelSpec,
    T: int,
    m: int,
    master_seed: int,
    snapshot_times: Sequence[int] = (),
    track_mean_err: bool = False,
) -> EnsembleSample:
    """Terminal states of m independent seeded runs, plus the full trajectory of run 0.

    Run ``r``'s noise is addressed by ``(master_seed, r, step)`` (see the
    ``noise`` module docstring), so the result is a pure function of
    ``(spec, T, m, master_seed)``, run ``r``'s states of ``(spec, T,
    master_seed, r)``, unaffected by batching or parallel execution. Run
    0's states and per-step diagnostics come from the same pass as the
    terminal block, so ``run0.terminal`` equals ``terminal_states[0]`` bit
    for bit. Requested ``snapshot_times`` record full (m, n) state blocks
    along the way; the snapshot at ``T`` is the terminal block itself. The
    noise comes from ``noise.NoiseChunks``, whose memory is one chunk
    budget and one part whatever ``T`` is. Every run goes through one
    pass of all ``T`` steps, so a schedule is queried once a step. The
    state block has the noise's width, a multiple of ``noise.WIDTH_PAD``,
    so that ``M @ X`` rounds every run's column the same way at any ``m``;
    the pad columns are further runs, stepped and never reported. Each
    step's ``M @ X`` goes into the block the step before left behind, so
    stepping allocates no new state block. ``engine`` reports what the
    pass did and ``timing`` where its time went.
    """
    start = time.perf_counter()
    if T < 0:
        raise ValueError("T must be nonnegative")
    if m < 1:
        raise ValueError("m must be at least 1")
    n = spec.n
    sbar = spec.sigma_bar
    snapset = set(int(t) for t in snapshot_times)
    bad = [t for t in snapset if t < 0 or t > T]
    if bad:
        raise ValueError(f"snapshot times out of range 0..{T}: {sorted(bad)}")
    if track_mean_err and sbar is None:
        raise ValueError("error tracking needs a family with a consensus target")

    chunks = NoiseChunks(spec.noise, T, m, master_seed)
    steps = iter(chunks)  # closed on the way out, so no noise part outlives an error
    noise = repeat(None) if spec.family is ModelFamily.BASE else steps

    states = np.empty((T + 1, n))
    rho = np.full(T + 1, np.nan)
    mean_err = np.empty(T + 1) if track_mean_err else None
    terminal = np.empty((m, n))
    snaps = {t: terminal if t == T else np.empty((m, n)) for t in sorted(snapset)}

    def observe(t: int):
        states[t] = X[:, 0]
        if track_mean_err:
            mean_err[t] = np.abs(X[:, :m] - sbar).max(axis=0).mean()
        if t in snaps and t < T:  # the horizon's snapshot is the terminal block
            snaps[t][...] = X[:, :m].T

    clock = time.perf_counter
    average = spec.family is ModelFamily.AVERAGE
    X = np.repeat(spec.x0[:, None], chunks.width, axis=1)
    spare = np.empty_like(X)
    observed = clock()
    observe(0)
    observe_s = clock() - observed
    with closing(steps):
        for t, g, (_, e, M, rho_t) in zip(range(1, T + 1), noise, _schedule(spec, T)):
            X, spare = _step(M, X, e, spec.learning_fn, sbar, g, average, out=spare), X
            rho[t] = rho_t
            observed = clock()
            observe(t)
            observe_s += clock() - observed
    terminal[...] = X[:, :m].T

    observed = clock()
    err = np.abs(states - sbar).max(axis=1) if sbar is not None else np.full(T + 1, np.nan)
    osc = states.max(axis=1) - states.min(axis=1)
    observe_s += clock() - observed
    noise_s = chunks.fill_s + chunks.transform_s
    timing = {
        "fill_s": chunks.fill_s,
        "transform_s": chunks.transform_s,
        "step_s": max(0.0, clock() - start - noise_s - observe_s),
        "observe_s": observe_s,
    }
    return EnsembleSample(
        terminal_states=terminal,
        t_final=T,
        master_seed=master_seed,
        run0=Trajectory(states=states, err_inf=err, osc=osc, rho=rho, sigma_bar=sbar),
        engine={
            "runs": m,
            "steps": T,
            "uniforms_drawn": chunks.uniforms_drawn,
            "philox_calls": chunks.philox_calls,
            "transform_parts": chunks.transform_parts,
            "chunk_steps": chunks.chunk_steps,
            "noise_buffer_bytes_peak": chunks.buffer_bytes_peak,
        },
        timing=timing,
        snapshots=snaps,
        mean_err_inf=mean_err,
    )
