import numpy as np
import pytest

from consensuslab import (
    Constant,
    ModelSpec,
    ScheduleError,
    Table,
    TableExhaustedError,
    as_schedule,
    check_ll1b,
    check_nonlinear_bounds,
    linear_learning,
    model_rho_sequence,
    rho_exp_inverse_square,
    rho_harmonic,
    simulate_ensemble,
)


def test_constant():
    s = Constant(7)
    assert s(0) == 7 and s(10**6) == 7


def test_table_indexing_and_exhaustion():
    s = Table([10, 11, 12], t0=1)
    assert s(1) == 10 and s(3) == 12
    with pytest.raises(TableExhaustedError) as e:
        s(4)
    assert e.value.t == 4
    with pytest.raises(TableExhaustedError):
        s(0)


def test_table_rejects_empty():
    with pytest.raises(ValueError):
        Table([])


def test_as_schedule():
    assert as_schedule(5)(3) == 5
    f = lambda t: t * 2
    assert as_schedule(f) is f


def test_rho_harmonic_values():
    r = rho_harmonic(4)
    assert np.allclose(r, [1 / 2, 2 / 3, 3 / 4, 4 / 5])


def test_rho_exp_values():
    r = rho_exp_inverse_square(3)
    assert np.allclose(r, np.exp([-1.0, -0.25, -1 / 9]))


A2 = np.array([[0.6, 0.4], [0.3, 0.7]])
A3 = np.array([[0.6, 0.4, 0.0], [0.2, 0.5, 0.3], [0.0, 0.3, 0.7]])


def _from_step_3(good, bad):
    return lambda t: bad if t >= 3 else good


def _raises_from_step_3(t):
    if t >= 3:
        raise ArithmeticError("no weights past step 2")
    return A3


class _Counted(Constant):
    """A Constant that counts its queries."""

    __slots__ = ("calls",)

    def __init__(self, value):
        super().__init__(value)
        self.calls = 0

    def __call__(self, t: int):
        self.calls += 1
        return self.value


def _readers(weights_only: bool, T: int):
    """Every reader of a model's schedules: the engine, its rho figures and the two schedule checks."""
    readers = {
        "simulate_ensemble": lambda spec: simulate_ensemble(spec, T, 3, master_seed=5),
        "model_rho_sequence": lambda spec: model_rho_sequence(spec, T),
        "check_ll1b": lambda spec: check_ll1b(spec.schedule_A, spec.schedule_E, T),
    }
    if weights_only:
        readers["check_nonlinear_bounds"] = lambda spec: check_nonlinear_bounds(linear_learning(0.1), spec.schedule_A, T)
    return readers


@pytest.mark.parametrize("part, n, schedule, message", [
    ("A", 3, _from_step_3(A3, 1.5 * A3), "weights schedule produced an invalid matrix at t=3: rows must sum to 1"),
    ("A", 3, _from_step_3(A3, A2), "weights schedule produced an invalid matrix at t=3: shape (2, 2), expected (3, 3)"),
    ("eps", 2, _from_step_3([0.3, 0.4], [0.3, 0.3, 0.3]), "rate schedule produced an invalid value at t=3: [0.3, 0.3, 0.3]"),
    ("eps", 2, _from_step_3([0.3, 0.4], [0.3, np.nan]), "rate schedule produced an invalid value at t=3: [0.3, nan]"),
    ("A", 3, _raises_from_step_3, "weights schedule failed at t=3: no weights past step 2"),
], ids=["non-stochastic", "2x2-for-n=3", "3-rates-for-2", "nan-rate", "raises"])
def test_every_reader_refuses_a_bad_schedule_value_alike(part, n, schedule, message):
    # the engine and the checks read a schedule through one walk: each raises the same
    # ScheduleError at the first step it queries the bad value, and no check passes on it
    good = {"A": A2 if n == 2 else A3, "eps": [0.3, 0.4, 0.5][:n]}
    spec = ModelSpec.base(**{**good, part: schedule}, sigma_bar=1.0, x0=np.zeros(n))
    errors = {}
    for name, read in _readers(part == "A", T=10).items():
        with pytest.raises(ScheduleError) as raised:
            read(spec)
        errors[name] = (raised.value.t, str(raised.value))
    assert set(errors.values()) == {(3, errors["simulate_ensemble"][1])}, errors
    assert errors["simulate_ensemble"][1].startswith(message)


def test_every_reader_queries_a_constant_once_and_anything_else_once_a_step():
    T = 500
    weights, rates = _Counted(A3), _Counted([0.3, 0.4, 0.5])
    spec = ModelSpec.base(weights, rates, sigma_bar=1.0, x0=np.zeros(3))
    for name, read in _readers(True, T).items():
        weights.calls = rates.calls = 0
        read(spec)
        assert (weights.calls, rates.calls) == (1, 0 if name == "check_nonlinear_bounds" else 1), name
    queried = []
    spec = ModelSpec.base(lambda t: queried.append(t) or A3, rates, sigma_bar=1.0, x0=np.zeros(3))
    first = {"check_ll1b": 0}
    for name, read in _readers(True, T).items():
        queried.clear()
        read(spec)
        assert queried == list(range(first.get(name, 1), T + 1)), name
