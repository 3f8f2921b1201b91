"""Numerical checkers for the hypotheses behind the convergence guarantees.

Pointwise rate conditions are decided exactly. The asymptotic ones
(vanishing products, bounded tail sums) cannot be decided from a finite
horizon, so those checkers report the measured quantities together with an
advisory verdict; the horizon and the tolerances that produced the verdict
are always part of the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise
from typing import Callable, Optional

import numpy as np
import orjson

from .errors import InconsistentDeclarationError
from .matrices import contraction_factor, entries_of, matrix_inf_norm
from .schedules import walk

PRODUCT_TOL = 1e-6
SUMMABILITY_TOL = 1e-3
LOG_DECREMENT_TOL = 0.1
SUP_BOUND = 1e3
GROWTH_FRAC = 0.25


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one hypothesis check.

    ``witness`` carries the measured quantities and, when the check fails,
    enough to see why (offending index, attained sup, partial sums).
    """

    name: str
    satisfied: bool
    witness: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """Strict-JSON form: numpy values become Python ones, non-finite floats null."""
        return _sanitize({"name": self.name, "satisfied": bool(self.satisfied), "witness": self.witness})


def _sanitize(obj):
    """A plain copy of ``obj`` as orjson writes it: numpy values become Python ones, non-finite floats None.

    Dict keys become strings and tuples lists. An array orjson does not take
    itself (a non-contiguous view, a 0-d array) goes through ``tolist``; any
    other type orjson does not know raises ``TypeError``.
    """
    options = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_NON_STR_KEYS
    return orjson.loads(orjson.dumps(obj, default=np.ndarray.tolist, option=options))


def check_base_rates(A, eps, beta=None, delta: Optional[float] = None) -> ConditionReport:
    """Strict per-agent rate window ``0 < eps_i < 2 a_ii``.

    Equivalent to the per-step contraction factor being below one. When a
    positive weight vector ``beta`` and a bound ``delta`` are supplied, the
    relaxed weighted-norm variant is verified instead: ``A beta <= delta
    beta`` componentwise plus ``|a_ii - eps_i| + delta - a_ii < 1``.
    """
    a = entries_of(A)
    e = np.asarray(eps, dtype=float)
    d = np.diagonal(a)
    if beta is None:
        ok = (e > 0.0) & (e < 2.0 * d)
        witness = {
            "upper_bounds": 2.0 * d,
            "eps": e,
            "rho": contraction_factor(a, e),
        }
        if not ok.all():
            i = int(np.argmin(ok))
            witness["first_violation"] = i
            witness["violations"] = np.nonzero(~ok)[0]
        return ConditionReport("base_rates", bool(ok.all()), witness)

    b = np.asarray(beta, dtype=float)
    if np.any(b <= 0.0):
        raise ValueError("beta must be strictly positive")
    if delta is None:
        raise ValueError("extended mode needs both beta and delta")
    growth = a @ b - delta * b
    dominated = growth <= 1e-12
    factors = np.abs(d - e) + delta - d
    ok = dominated.all() and factors.max() < 1.0
    witness = {
        "mode": "weighted",
        "delta": float(delta),
        "domination_residual": growth,
        "weighted_factor": float(factors.max()),
    }
    if not dominated.all():
        witness["first_violation"] = int(np.argmin(dominated))
    elif factors.max() >= 1.0:
        witness["first_violation"] = int(np.argmax(factors))
    return ConditionReport("base_rates", bool(ok), witness)


def check_average_rates(A, eps, strict: bool = True) -> ConditionReport:
    """Rate window for mean-feedback dynamics.

    Strict mode requires ``0 < eps_i < n/(n-1) a_ii``, the guarantee for
    fixed schedules; inclusive mode allows equality at both ends, matching
    the weaker per-step requirement for time-varying schedules.
    """
    a = entries_of(A)
    e = np.asarray(eps, dtype=float)
    d = np.diagonal(a)
    n = a.shape[0]
    hi = (n / (n - 1.0)) * d if n > 1 else np.full_like(d, np.inf)
    if strict:
        ok = (e > 0.0) & (e < hi)
    else:
        ok = (e >= 0.0) & (e <= hi)
    witness = {"upper_bounds": hi, "eps": e, "strict": strict}
    if not ok.all():
        i = int(np.argmin(ok))
        witness["first_violation"] = i
        witness["violations"] = np.nonzero(~ok)[0]
    return ConditionReport("average_rates", bool(ok.all()), witness)


def _rho_array(rhos, T: Optional[int]) -> np.ndarray:
    r = np.asarray(rhos, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("need a nonempty 1-d sequence of contraction factors")
    if np.any(r < 0.0):
        raise ValueError("contraction factors must be nonnegative")
    if T is not None:
        if T < 1 or T > r.size:
            raise ValueError(f"horizon T={T} outside 1..{r.size}")
        r = r[:T]
    return r


def check_product_to_zero(
    rhos,
    T: Optional[int] = None,
    product_tol: float = PRODUCT_TOL,
    decrement_tol: float = LOG_DECREMENT_TOL,
) -> ConditionReport:
    """Advisory check that the running product of factors dies out.

    Reports the partial product at the horizon and classifies the trend of
    its logarithm: "vanishing" when the log keeps falling by at least
    ``decrement_tol`` over the back half of the horizon, "stalled" when it
    has effectively stopped moving. Satisfied when the partial product is
    already below ``product_tol`` or the trend is still vanishing.
    """
    r = _rho_array(rhos, T)
    with np.errstate(divide="ignore"):
        logs = np.log(r)
    log_partial = np.cumsum(logs)
    partial = float(np.exp(log_partial[-1]))
    half = log_partial[len(log_partial) // 2 - 1] if len(log_partial) > 1 else 0.0
    decrement = float(log_partial[-1] - half)
    trend = "vanishing" if decrement <= -decrement_tol else "stalled"
    satisfied = partial < product_tol or trend == "vanishing"
    return ConditionReport(
        "product_to_zero",
        bool(satisfied),
        {
            "T": int(r.size),
            "partial_product": partial,
            "log_partial_product": float(log_partial[-1]),
            "back_half_log_decrement": decrement,
            "trend": trend,
            "product_tol": product_tol,
            "decrement_tol": decrement_tol,
        },
    )


def check_ll1(
    rhos,
    T: Optional[int] = None,
    sup_bound: float = SUP_BOUND,
    growth_frac: float = GROWTH_FRAC,
) -> ConditionReport:
    """Advisory check that nested products of the factors stay summable.

    Runs the recursion ``S_t = rho_t (1 + S_{t-1})``, whose supremum is the
    quantity that must stay finite. Satisfied when the observed sup is
    below ``sup_bound`` and also small relative to the horizon (below
    ``growth_frac * T``): a recursion that is actually unbounded grows
    linearly with the horizon, while a bounded one stops scaling with it.
    Short horizons can under-certify slowly-mixing but bounded sequences;
    the fitted back-half slope is reported for diagnosis either way.
    """
    r = _rho_array(rhos, T)
    s = np.empty(r.size)
    acc = 0.0
    for i, x in enumerate(r):
        acc = x * (1.0 + acc)
        s[i] = acc
    sup = float(s.max())
    arg = int(s.argmax())
    tail = s[s.size // 2 :]
    if tail.size >= 2:
        slope = float(np.polyfit(np.arange(tail.size, dtype=float), tail, 1)[0])
    else:
        slope = 0.0
    satisfied = sup < sup_bound and sup < growth_frac * r.size
    return ConditionReport(
        "ll1",
        bool(satisfied),
        {
            "T": int(r.size),
            "sup": sup,
            "sup_at_t": arg + 1,
            "final": float(s[-1]),
            "back_half_slope": slope,
            "sup_bound": sup_bound,
            "growth_frac": growth_frac,
        },
    )


def check_ll1b(
    schedule_A: Callable[[int], object],
    schedule_E: Callable[[int], object],
    T: int,
    summability_tol: float = SUMMABILITY_TOL,
) -> ConditionReport:
    """Advisory summability of schedule increments.

    Accumulates ``|A_t - A_{t-1}|_inf + |E_t - E_{t-1}|_inf`` for t = 1..T
    and compares the tail (t > T/2) against the head; a tail below
    ``summability_tol`` is taken as evidence the series converges. It reads
    t = 0..T through ``schedules.walk``, raising a run's ``ScheduleError``.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    sums = [0.0, 0.0]  # the head (t <= T/2) and the tail
    for t, ((prev_a, prev_e), (a, e)) in enumerate(pairwise(walk(schedule_A, schedule_E, 0, T)), 1):
        # a repeated object's increment is 0.0 (walk's values are finite), so it is not computed
        da = 0.0 if a is prev_a else matrix_inf_norm(a - prev_a)
        de = 0.0 if e is prev_e else float(np.abs(e - prev_e).max())
        sums[t > T // 2] += da + de
    head, tail = sums
    total = head + tail
    satisfied = tail < summability_tol
    return ConditionReport(
        "ll1b",
        bool(satisfied),
        {
            "T": T,
            "partial_sum": total,
            "head_sum": head,
            "tail_sum": tail,
            "summability_tol": summability_tol,
        },
    )


def default_grid(lo: float = -10.0, hi: float = 10.0, points: int = 1001) -> np.ndarray:
    """Sampling grid used to audit declared derivative bounds."""
    return np.linspace(lo, hi, points)


def check_nonlinear_bounds(f, schedule_A, T: int, grid=None) -> ConditionReport:
    """Derivative-pinching condition for nonlinear learning.

    ``f`` is one learning function shared by all agents or a sequence with
    one per agent. Satisfied when the declared derivative range is strictly
    positive and its top stays below twice the smallest self-weight seen
    over the horizon; with one function per agent the range runs from the
    smallest declared bottom to the largest declared top. Every declaration
    is audited first: the function's sampled derivative values on the grid
    must lie inside its own declared range, and a function with no declared
    range is rejected outright. The weights are read at t = 1..T as
    ``schedules.walk`` reads them for the engine.
    """
    fs = tuple(f) if isinstance(f, (list, tuple)) else (f,)
    if not all(getattr(fi, "has_declared_bounds", False) for fi in fs):
        raise InconsistentDeclarationError(
            "learning function declares no derivative bounds; the pinching condition cannot apply"
        )
    g = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if g.size == 0:
        raise ValueError("empty sampling grid")
    slack = 1e-12
    lo, hi = np.inf, -np.inf
    for fi in fs:
        if fi.derivative is None:
            raise InconsistentDeclarationError("declared bounds but no derivative to audit them against")
        sampled = np.asarray(fi.derivative(g), dtype=float)
        if sampled.min() < fi.deriv_inf - slack or sampled.max() > fi.deriv_sup + slack:
            raise InconsistentDeclarationError(
                f"sampled derivative range [{sampled.min():g}, {sampled.max():g}] leaves the "
                f"declared [{fi.deriv_inf:g}, {fi.deriv_sup:g}]"
            )
        lo, hi = min(lo, float(sampled.min())), max(hi, float(sampled.max()))
    deriv_inf = min(fi.deriv_inf for fi in fs)
    deriv_sup = max(fi.deriv_sup for fi in fs)
    min_aii = min((float(np.diagonal(a).min()) for a, _ in walk(schedule_A, None, 1, T)), default=np.inf)
    satisfied = deriv_inf > 0.0 and deriv_sup < 2.0 * min_aii
    return ConditionReport(
        "nonlinear_bounds",
        bool(satisfied),
        {
            "deriv_inf": deriv_inf,
            "deriv_sup": deriv_sup,
            "min_diagonal": min_aii,
            "upper_limit": 2.0 * min_aii,
            "sampled_range": [lo, hi],
            "T": T,
        },
    )


def nonlinear_rho(f, A) -> float:
    """Worst-case contraction figure of a nonlinear step.

    ``f`` is one learning function shared by all agents or a sequence with
    one per agent. Evaluates ``|a_ii - d| + 1 - a_ii`` at both ends of each
    agent's declared derivative range (the expression is piecewise monotone
    in ``d``, so the supremum over the range is attained at an endpoint)
    and maximizes over agents.
    """
    d = np.diagonal(entries_of(A))
    fs = tuple(f) if isinstance(f, (list, tuple)) else (f,) * d.size
    if not all(getattr(fi, "has_declared_bounds", False) for fi in fs):
        raise InconsistentDeclarationError("learning function declares no derivative bounds")
    lo = np.abs(d - np.array([fi.deriv_inf for fi in fs])) + 1.0 - d
    hi = np.abs(d - np.array([fi.deriv_sup for fi in fs])) + 1.0 - d
    return float(np.maximum(lo, hi).max())
