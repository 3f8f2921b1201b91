"""Empirical-distribution analysis: distances, limit checks, periodicity.

Distributional claims are verified per coordinate (one-dimensional
transport distance, Kolmogorov-Smirnov) together with a rank-one check of
the joint covariance; at the small dimensions this package targets, the
pair pins down the limit geometry without a multidimensional transport
solver.

The normal CDF is a numpy port of Cephes' ``ndtr`` (S. L. Moshier), the
algorithm scipy compiles: W. J. Cody's rational Chebyshev approximations to
erf and erfc (Math. Comp. 23, 1969), with ``exp(-z^2)`` in one call as scipy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .errors import InsufficientSampleError, StructureError
from .matrices import entries_of


@dataclass(frozen=True, eq=False)
class EmpiricalSample:
    """m points in n dimensions, one row per independent run."""

    points: np.ndarray
    t_final: Optional[int] = None
    centered_scaled: bool = False

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        if p.ndim == 1:
            p = p[:, None]
        if p.ndim != 2 or p.shape[0] < 1:
            raise ValueError("points must form a nonempty (m, n) array")
        object.__setattr__(self, "points", p)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class CLTTarget:
    """Predicted covariance of the scaled, centered terminal state."""

    covariance: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.covariance, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("covariance must be square")
        if np.max(np.abs(c - c.T)) > 1e-9:
            raise StructureError("covariance must be symmetric")
        object.__setattr__(self, "covariance", c)


def _points(sample) -> np.ndarray:
    if isinstance(sample, EmpiricalSample):
        return sample.points
    p = np.asarray(sample, dtype=float)
    return p[:, None] if p.ndim == 1 else p


def empirical_moments(sample) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and unbiased sample covariance of an (m, n) sample."""
    p = _points(sample)
    m = p.shape[0]
    if m < 2:
        raise InsufficientSampleError(f"need at least 2 points for moments, got {m}")
    mean = p.mean(axis=0)
    xc = p - mean
    cov = xc.T @ xc / (m - 1)
    return mean, cov


def wasserstein1_1d(a, b) -> float:
    """Transport distance between two one-dimensional samples.

    For equal sample sizes this is the mean absolute difference of matched
    order statistics; unequal sizes fall back to the exact area between the
    two empirical CDFs (the same quantity, evaluated on the merged
    support). Symmetric, and zero exactly when the multisets coincide.
    """
    x = np.sort(np.asarray(a, dtype=float).ravel())
    y = np.sort(np.asarray(b, dtype=float).ravel())
    if x.size == 0 or y.size == 0:
        raise ValueError("samples must be nonempty")
    if x.size == y.size:
        return float(np.mean(np.abs(x - y)))
    grid = np.concatenate([x, y])
    grid.sort(kind="mergesort")
    deltas = np.diff(grid)
    fx = np.searchsorted(x, grid[:-1], side="right") / x.size
    fy = np.searchsorted(y, grid[:-1], side="right") / y.size
    return float(np.sum(np.abs(fx - fy) * deltas))


def ks_statistic(sample, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup distance between the empirical CDF of a sample and a reference CDF."""
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    m = x.size
    if m == 0:
        raise ValueError("sample must be nonempty")
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, m + 1)
    d_plus = float(np.max(i / m - f))
    d_minus = float(np.max(f - (i - 1) / m))
    return max(d_plus, d_minus)


def ks_critical_value(m: int, level: float = 0.01) -> float:
    """Asymptotic one-sample critical value; 1.63/sqrt(m) at the 1% level.

    Only the tabulated levels 0.10, 0.05 and 0.01 are accepted.
    """
    for tabulated, coeff in ((0.10, 1.22), (0.05, 1.36), (0.01, 1.63)):
        if math.isclose(level, tabulated):
            return coeff / np.sqrt(m)
    raise ValueError(f"unsupported KS level {level!r}; supported levels: 0.10, 0.05, 0.01")


def cauchy_cdf(x, scale: float = 1.0):
    """CDF of the centered Cauchy law with the given scale, which must be positive."""
    if not scale > 0.0:
        raise ValueError(f"cauchy scale must be positive, got {scale!r}")
    return 0.5 + np.arctan(np.asarray(x, dtype=float) / scale) / np.pi


# Cephes ndtr.c, highest power first: erf(t) = t T(t^2)/U(t^2) for |t| < 1; erfc(w) = exp(-w^2) P(w)/Q(w) for
# 1 <= w < 8 and exp(-w^2) R(w)/S(w) from 8 up. T is halved, so Horner's rule gives 0.5 erf(t) to the bit.
_T = tuple(0.5 * c for c in (9.604973739870516, 90.02601972038427, 2232.005345946843, 7003.325141128051,
                             55592.30130103949))
_U = (1.0, 33.56171416475031, 521.3579497801527, 4594.323829709801, 22629.000061389095, 49267.39426086359)
_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699, 48.63719709856814, 196.5208329560771,
      526.4451949954773, 934.5285271719576, 1027.5518868951572, 557.5353353693994)
_Q = (1.0, 13.228195115474499, 86.70721408859897, 354.9377788878199, 975.7085017432055, 1823.9091668790973,
      2246.3376081871097, 1656.6630919416134, 557.5353408177277)
_R = (0.5641895835477551, 1.275366707599781, 5.019050422511805, 6.160210979930536, 7.4097426995044895,
      2.9788666537210022)
_S = (1.0, 2.2605286322011726, 9.396035249380015, 12.048953980809666, 17.08144507475659, 9.608968090632859,
      3.369076451000815)


def _polevl(t, coef, out=None):
    """Horner's rule in place, in the order of Cephes' ``polevl``."""
    out = np.multiply(t, coef[0], out=out)
    for c in coef[1:-1]:
        out += c
        out *= t
    out += coef[-1]
    return out


def _ndtr(x):
    """Cephes ``ndtr`` of a fresh float array ``x``, which it overwrites and returns flat."""
    x = np.ravel(x)
    x *= math.sqrt(0.5)
    far = (x >= 1.0) | (x <= -1.0)  # NaN stays near, and the erf rational passes it through
    w = np.minimum(np.abs(x[far]), 27.0)  # keeps inf out of the rationals; 27^2 is past the cut below
    ex = np.exp(-(w * w))
    r = 0.5 * (_polevl(w, _P) * ex / _polevl(w, _Q))
    tail = w >= 8.0
    r[tail] = 0.5 * (_polevl(w[tail], _R) * ex[tail] / _polevl(w[tail], _S))
    r[w * w > 709.782712893384] = 0.0  # Cephes' erfc is 0 where exp(-w^2) underflows, past log(DBL_MAX)
    np.subtract(1.0, r, out=r, where=x[far] > 0.0)
    # Cephes' 0.5 (1 - erf z) for 1/sqrt2 <= z < 1 is 0.5 + 0.5 erf(x) to the bit (erf z > 0.5 makes 1 - erf z
    # exact), so one erf branch runs in place, 8192 values a time: its 64 KiB temporaries are reused, not faulted in
    x[far] = 0.0  # keeps the erf branch finite there; overwritten below
    for lo in range(0, x.size, 8192):
        t = x[lo : lo + 8192]
        s = t * t
        e = _polevl(s, _T) * t
        e /= _polevl(s, _U, out=t)
        np.add(e, 0.5, out=t)
    x[far] = r
    return x


def normal_cdf(x, mu: float = 0.0, sigma: float = 1.0):
    """CDF of the normal law with the given mean and standard deviation, which must be positive."""
    if not sigma > 0.0:
        raise ValueError(f"normal sigma must be positive, got {sigma!r}")
    z = (np.asarray(x, dtype=float) - mu) / sigma  # a fresh array, for _ndtr to overwrite
    return _ndtr(z).reshape(np.shape(z))[()]


def clt_target(C, eps, Sigma, row_tol: float = 1e-8) -> CLTTarget:
    """Covariance of the scaled terminal state under mean-feedback dynamics.

    ``C`` is the converged product of the update matrices (identical rows
    holding the consensus weights), ``eps`` the limiting learning rates and
    ``Sigma`` the per-step noise covariance. The limit covariance is the
    sandwich ``C E Sigma E C^T`` with ``E = diag(eps)``: late disturbances
    enter through ``E`` and are then flattened onto the consensus direction
    by the rank-one ``C``, so the result is rank one and every entry equals
    ``nu^T E Sigma E nu``, the variance accumulated per step along the
    consensus functional ``nu``.
    """
    c = entries_of(C)
    n = c.shape[0]
    if c.shape != (n, n):
        raise ValueError("C must be square")
    spread = float(np.max(np.abs(c - c[0][None, :]))) if n > 1 else 0.0
    if spread > row_tol:
        raise StructureError(f"C rows differ by {spread:g}, above the rank-one tolerance {row_tol:g}")
    e = np.asarray(eps, dtype=float)
    if e.ndim == 2:
        e = np.diagonal(e).copy()
    if e.shape != (n,):
        raise ValueError(f"eps must have length {n}")
    s = np.asarray(Sigma, dtype=float)
    if s.shape != (n, n):
        raise ValueError(f"Sigma must have shape ({n}, {n})")
    if np.max(np.abs(s - s.T)) > 1e-9:
        raise StructureError("Sigma must be symmetric")
    ce = c * e[None, :]  # C @ diag(eps)
    g = ce @ s @ ce.T
    g = 0.5 * (g + g.T)
    return CLTTarget(g)


def rank_one_score(cov, sym_tol: float = 1e-9) -> float:
    """Ratio of the two largest eigenvalues of a symmetric PSD matrix.

    Small values certify that the mass concentrates on a line. Uses the
    closed form at n=2 and ``numpy.linalg.eigvalsh`` for larger matrices;
    returns 0 for a zero matrix and for n=1.
    """
    c = np.asarray(cov, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("covariance must be square")
    if np.max(np.abs(c - c.T)) > sym_tol:
        raise StructureError(f"matrix asymmetric beyond {sym_tol:g}")
    n = c.shape[0]
    if n == 1:
        return 0.0
    if n == 2:
        mid = 0.5 * (c[0, 0] + c[1, 1])
        rad = np.hypot(0.5 * (c[0, 0] - c[1, 1]), c[0, 1])
        lam1, lam2 = mid + rad, mid - rad
    else:
        lam2, lam1 = np.linalg.eigvalsh(c)[-2:]
    return 0.0 if lam1 <= 0.0 else float(min(max(lam2, 0.0) / lam1, 1.0))


TrajectoryLike = Union[np.ndarray, object]


def _states(traj: TrajectoryLike) -> np.ndarray:
    s = getattr(traj, "states", traj)
    s = np.asarray(s, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    if getattr(traj, "full_states", True) is False:
        raise ValueError("trajectory was recorded terminal-only; rerun with full states")
    return s


def consensus_time(traj: TrajectoryLike, target: Optional[float], tol: float) -> Optional[int]:
    """First time the trajectory is within tol of consensus, if any.

    With a ``target``, consensus means every component within ``tol`` of it
    in sup norm; with ``target=None`` it means the state spread
    (oscillation) is within ``tol``, the endogenous notion.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    s = _states(traj)
    gap = s.max(axis=1) - s.min(axis=1) if target is None else np.abs(s - target).max(axis=1)
    hit = np.flatnonzero(gap <= tol)  # a NaN gap is never within tol
    return int(hit[0]) if hit.size else None


def detect_periodicity(traj: TrajectoryLike, max_period: int, tol: float) -> Optional[int]:
    """Smallest period the trailing third of the trajectory settles into.

    Returns the least ``p <= max_period`` with ``|X_t - X_{t+p}|`` within
    ``tol`` across the trailing third, or None. A converged trajectory
    reports period 1; callers separate that degenerate case via the
    oscillation diagnostics.
    """
    if max_period < 1:
        raise ValueError("max_period must be at least 1")
    s = _states(traj)
    length = s.shape[0]
    if length <= 3 * max_period:
        raise ValueError(f"trajectory of length {length} is too short for max_period {max_period}")
    window = s[-(length // 3) :]
    for p in range(1, max_period + 1):
        diff = np.abs(window[:-p] - window[p:]).max()
        if diff <= tol:
            return p
    return None


@dataclass(frozen=True, eq=False)
class DriftReport:
    """Per-coordinate transport distances between consecutive ensembles.

    ``distances[k]`` compares the ensembles at ``times[k]`` and
    ``times[k+1]``. ``non_convergent`` is set when the distance sequence
    shows no decay (trailing mean at least half the leading mean); it stays
    None when only one pair is available.
    """

    times: tuple
    distances: np.ndarray
    non_convergent: Optional[bool]

    def max_distance(self) -> float:
        return float(self.distances.max())

    def to_json(self) -> dict:
        return {
            "times": list(self.times),
            "distances": self.distances.tolist(),
            "non_convergent": self.non_convergent,
        }


def distribution_drift(samples_at: Mapping[int, EmpiricalSample], decay_ratio: float = 0.5) -> DriftReport:
    """Transport drift of an ensemble across its sampled timestamps.

    Computes the per-coordinate one-dimensional transport distance between
    each pair of consecutive timestamps. A converging sequence of laws
    drives these to zero; the non-convergence flag trips when the trailing
    half of the distance sequence has not decayed below ``decay_ratio``
    times the leading half.
    """
    if len(samples_at) < 2:
        raise ValueError("need samples at two or more timestamps")
    times = sorted(int(t) for t in samples_at)
    samples = [_points(samples_at[t]) for t in times]
    n = samples[0].shape[1]
    if any(p.shape[1] != n for p in samples):
        raise ValueError("all samples must share a dimension")
    dist = np.empty((len(times) - 1, n))
    for k in range(len(times) - 1):
        for j in range(n):
            dist[k, j] = wasserstein1_1d(samples[k][:, j], samples[k + 1][:, j])
    if dist.shape[0] >= 2:
        per_pair = dist.max(axis=1)
        cut = max(1, per_pair.size // 2)
        leading = float(per_pair[:cut].mean())
        trailing = float(per_pair[cut:].mean())
        non_convergent = bool(trailing >= decay_ratio * leading) if leading > 0 else False
    else:
        non_convergent = None
    return DriftReport(times=tuple(times), distances=dist, non_convergent=non_convergent)
