"""Time-indexed schedules for weights matrices, learning rates and scalars.

A schedule is any callable mapping a step index ``t >= 0`` to a value. The
classes below cover the forms scenarios use; anything else can be passed as
a bare function.

``matrix_at`` reads step t of a weights schedule (a finite, row-stochastic
n×n matrix) and ``rates_at`` of a rate schedule (n finite rates, or one for
all); any failure is a ``ScheduleError`` naming t. ``walk`` reads both over
t0..T, a ``Constant`` once. The engine, ``check_ll1b`` and
``check_nonlinear_bounds`` all walk, so no check passes on a schedule a run
refuses; ``ModelSpec`` reads a ``Constant``'s or ``Table``'s values when built.
"""

from __future__ import annotations

from contextlib import suppress

import numpy as np

from .errors import ScheduleError, TableExhaustedError
from .matrices import StochasticMatrix


class Constant:
    """Schedule that returns the same value at every step."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __call__(self, t: int):
        return self.value

    def __repr__(self):
        return f"Constant({self.value!r})"


class Table:
    """Schedule backed by a finite table, indexed from ``t0``."""

    __slots__ = ("values", "t0")

    def __init__(self, values, t0: int = 0):
        self.values = list(values)
        if not self.values:
            raise ValueError("table schedule needs at least one value")
        self.t0 = t0

    def __call__(self, t: int):
        i = t - self.t0
        if i < 0 or i >= len(self.values):
            raise TableExhaustedError(t, f"table schedule covers t={self.t0}..{self.t0 + len(self.values) - 1}, asked for t={t}")
        return self.values[i]

    def __len__(self):
        return len(self.values)


def as_schedule(value):
    """Wrap a bare value in a Constant schedule; pass callables through."""
    if callable(value):
        return value
    return Constant(value)


def _query(schedule, t: int, what: str):
    try:
        return schedule(t)
    except ScheduleError:
        raise
    except Exception as exc:
        raise ScheduleError(t, f"{what} schedule failed at t={t}: {exc}") from exc


def matrix_at(schedule, t: int, n: int | None = None) -> np.ndarray:
    """Step ``t``'s weights: a finite, row-stochastic ``(n, n)`` array (any square shape if ``n`` is None)."""
    v = _query(schedule, t, "weights")
    try:
        a = v.entries if isinstance(v, StochasticMatrix) else StochasticMatrix(v).entries
        if n is not None and a.shape != (n, n):
            raise ValueError(f"shape {a.shape}, expected {(n, n)}")
    except (ValueError, TypeError) as exc:
        raise ScheduleError(t, f"weights schedule produced an invalid matrix at t={t}: {exc}") from exc
    return a


def rates_at(schedule, t: int, n: int) -> np.ndarray:
    """Step ``t``'s rates as n finite values; a single value applies to every agent."""
    v = _query(schedule, t, "rate")
    with suppress(ValueError, TypeError):
        e = np.array(v, dtype=float, ndmin=1)
        e = e.repeat(n) if e.shape == (1,) else e
        if e.shape == (n,) and np.isfinite(e).all():
            return e
    raise ScheduleError(t, f"rate schedule produced an invalid value at t={t}: {v!r}, expected {n} finite rates or one")


def walk(schedule_A, schedule_E, t0: int, T: int, n: int | None = None):
    """Yield each step's ``(matrix_at(schedule_A, t, n), rates_at(schedule_E, t, n))`` for t = t0..T.

    The rates are None without ``schedule_E``; ``n`` defaults to the first
    matrix's. A ``Constant``'s one value is yielded, the same object, at every step.
    """
    a = e = None
    for t in range(t0, T + 1):
        if a is None or not isinstance(schedule_A, Constant):
            a = matrix_at(schedule_A, t, n)
            n = a.shape[0]
        if schedule_E is not None and (e is None or not isinstance(schedule_E, Constant)):
            e = rates_at(schedule_E, t, n)
        yield a, e


def rho_harmonic(T: int) -> np.ndarray:
    """Contraction sequence ``t / (t + 1)`` for t = 1..T.

    Its partial products collapse to ``1 / (T + 1)``, so the product still
    vanishes even though the factors approach one.
    """
    t = np.arange(1, T + 1, dtype=float)
    return t / (t + 1.0)


def rho_exp_inverse_square(T: int) -> np.ndarray:
    """Contraction sequence ``exp(-1/t^2)`` for t = 1..T.

    The partial products converge to the positive constant
    ``exp(-pi^2/6)``, the canonical case of factors below one whose product
    does not vanish.
    """
    t = np.arange(1, T + 1, dtype=float)
    return np.exp(-1.0 / t**2)
