"""Scenario ingestion, the reproducible-case catalog, and run orchestration.

Scenarios are JSON documents validated against the packaged schema
(``schemas/scenario.schema.json``, ``schema_version`` 1). A run executes
the requested hypothesis checks, simulates the model, applies the
requested analyses, and persists three artifacts: a trajectory CSV, an
ensemble CSV, and a summary JSON. Everything is a pure function of the
scenario plus its master seed, so re-running reproduces the CSV bytes.
"""

from __future__ import annotations

import inspect
import json
import time
from bisect import bisect_left
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from functools import partial
from importlib import resources
from numbers import Number
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import orjson

from . import conditions as cond
from . import stats as st
from .dynamics import (
    EnsembleSample,
    LearningFunction,
    ModelFamily,
    ModelSpec,
    Trajectory,
    _schedule,
    linear_learning,
    model_rho_sequence,
    scaled_sign_learning,
    scaled_tanh_learning,
    simulate,  # unused here; bench/tracing.py wraps harness.simulate by name
    simulate_ensemble,
)
from .errors import ScenarioFormatError
from .matrices import StochasticMatrix, dobrushin, oscillation, product_limit
from .noise import STREAM_PROVENANCE, NoiseSpec, epsilon_oscillator_sequence
from .schedules import Constant, Table, matrix_at, rho_exp_inverse_square, rho_harmonic

SCHEMA_VERSION = 1

_RHO_KINDS = ("model", "constant", "table", "harmonic", "exp_inverse_square")


def _packaged(folder: str, name: str) -> dict:
    """A JSON document shipped in the package's ``folder``."""
    return json.loads((resources.files("consensuslab") / folder / name).read_text())


@dataclass(eq=False)
class Scenario:
    """A validated, compiled scenario ready to run."""

    scenario_id: str
    model: Optional[ModelSpec]
    horizon: int
    ensemble: int
    master_seed: int
    snapshot_times: tuple
    checks: list
    analyses: list
    outputs_dir: Optional[str]
    description: str = ""
    raw: dict = field(default_factory=dict)


def _compile_time_scale(doc: Optional[dict], horizon: int):
    if doc is None:
        return None
    kind = doc.get("kind")
    if kind == "constant":
        v = _real(doc.get("value", 1.0), "time_scale value")
        return lambda t: v
    if kind == "inverse_t":
        return lambda t: 1.0 / t
    # "geometric": the scenario schema refuses any other kind
    r = _real(doc["rate"], "geometric rate")

    def overflows(t: int) -> bool:
        try:
            r**t
        except OverflowError:
            return True
        return False

    # |r|**t grows with t, so the steps that overflow, if any, are the last ones
    t = bisect_left(range(1, horizon + 1), True, key=overflows) + 1
    if t <= horizon:
        raise ValueError(f"geometric rate {r!r} overflows at t={t}")
    return lambda t: r**t


def _compile_noise(doc: dict, n: int, horizon: int) -> NoiseSpec:
    return NoiseSpec(doc["kind"], n, rate=doc.get("rate"), mu=doc.get("mu"), sigma=doc.get("sigma"),
                     scale=doc.get("scale"), table=doc.get("table"),
                     time_scale=_compile_time_scale(doc.get("time_scale"), horizon))


def _compile_learning_fn(doc: dict) -> LearningFunction:
    kind = doc.get("kind")
    if kind == "linear":
        return linear_learning(float(doc["slope"]))
    if kind == "scaled_tanh":
        return scaled_tanh_learning(float(doc.get("scale", 0.5)), float(doc.get("bound", 3.0)))
    return scaled_sign_learning(float(doc["step"]))  # "scaled_sign": the scenario schema refuses any other kind


def _no_booleans(value, pointer: str) -> None:
    """Refuse a boolean anywhere in ``value``, a JSON document or a part of one, at its pointer below ``pointer``."""
    if isinstance(value, bool):
        raise ScenarioFormatError(f"{value!r} is not a number", pointer)
    for key, v in value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ():
        if isinstance(v, (bool, dict, list)):
            _no_booleans(v, f"{pointer}/{key}")


def _finite(value, what: str = "entries") -> np.ndarray:
    """``value`` as a float array, refused if any entry is a boolean, NaN or infinite."""
    _no_booleans(value, what)
    a = np.asarray(value, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    return a


def _real(value, name: str) -> float:
    """A number of a scenario as a finite float."""
    return float(_finite(value, name))


def _compile_matrix_schedule(doc: dict):
    """A constant matrix or a table of them, each refused here unless finite and row-stochastic."""
    kind = doc.get("kind")
    if kind == "constant":
        return Constant(StochasticMatrix(doc["matrix"]))
    if kind == "table":
        return Table([StochasticMatrix(m) for m in doc["matrices"]], t0=0)
    raise ValueError(f"unknown weights-schedule kind {kind!r}; known for A: ('constant', 'table')")


def _compile_rate_schedule(doc: dict, horizon: int):
    kind = doc.get("kind")
    if kind == "constant":
        if "eps" not in doc and "value" not in doc:
            raise ValueError("constant rate schedule needs 'eps'")
        return Constant(_finite(doc.get("eps", doc.get("value"))))
    if kind == "table":
        return Table([_finite(v) for v in doc["values"]], t0=0)
    # "epsilon_oscillator": the scenario schema refuses any other kind
    return Table(epsilon_oscillator_sequence(max(horizon, 1)), t0=0)


@contextmanager
def _invalid(part: str, pointer: str):
    """Turn an error raised while compiling ``part`` into a ``ScenarioFormatError`` at ``pointer``."""
    try:
        yield
    except KeyError as exc:
        raise ScenarioFormatError(f"invalid {part}: missing field {exc.args[0]!r}", pointer) from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise ScenarioFormatError(f"invalid {part}: {exc}", pointer) from exc


def _compile_model(doc: Optional[dict], horizon: int) -> Optional[ModelSpec]:
    """The model document as a ``ModelSpec``; which fields a family takes is ``ModelSpec``'s rule."""
    if doc is None:
        return None
    n = int(doc["n"])  # the schema admits 2.0
    fields = {}
    for part, name, compile_part in (
        ("A", "schedule_A", _compile_matrix_schedule),
        ("E", "schedule_E", lambda d: _compile_rate_schedule(d, horizon)),
        ("noise", "noise", lambda d: _compile_noise(d, n, horizon)),
        ("learning_fn", "learning_fn", _compile_learning_fn),
    ):
        if part in doc:
            with _invalid(part, f"/model/{part}"):
                fields[name] = compile_part(doc[part])
    sigma_bar = doc.get("sigma_bar")
    with _invalid("model", "/model"):
        return ModelSpec(family=ModelFamily(doc["family"]), n=n, x0=doc["x0"], sigma_bar=sigma_bar,
                         include_target=sigma_bar is not None, **fields)


# The packaged schemas are JSON Schema (Draft 7). ``_walk`` implements the keywords they use, each in the one form
# they use it: a single ``type``, one ``items`` schema, ``additionalProperties`` false or a schema, ``oneOf``
# branches of distinct types and ``$ref`` to a definition. ``_checked`` refuses any other when a schema is read.
_TYPES = {
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
    "number": lambda v: not isinstance(v, bool) and isinstance(v, Number),
    "string": lambda v: isinstance(v, str),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}
_BOUNDS = {"minimum": (lambda v, a: v < a, "less than the minimum"),
           "maximum": (lambda v, a: v > a, "greater than the maximum"),
           "exclusiveMinimum": (lambda v, a: v <= a, "less than or equal to the minimum")}
_KEYWORDS = {"$schema", "$id", "title", "definitions", "type", "enum", "const", "required", "properties",
             "additionalProperties", "items", "minItems", "minLength", "oneOf", *_BOUNDS}


def _checked(schema: dict, root: dict) -> dict:
    """``schema`` with each ``$ref`` replaced by the definition it names; a keyword or form ``_walk`` lacks raises."""
    name = str(schema.get("$ref")).removeprefix("#/definitions/")
    if schema.keys() == {"$ref"} and name != schema["$ref"] and name in root.get("definitions", {}):
        return _checked(root["definitions"][name], root)
    types = [str(branch.get("type")) for branch in schema.get("oneOf", [{"type": "null"}, {"type": "object"}])]
    extra = schema.get("additionalProperties", False)
    if (not _KEYWORDS.issuperset(schema) or str(schema.get("type", "null")) not in _TYPES
            or len(types) < 2 or len(_TYPES.keys() & types) < len(types) or {"integer", "number"} <= set(types)
            or not isinstance(schema.get("items", {}), dict) or extra is not False and not isinstance(extra, dict)):
        raise ValueError(f"a keyword or form the schema validator does not implement: {schema}")
    return {k: {key: _checked(sub, root) for key, sub in a.items()} if k == "properties"
            else [_checked(branch, root) for branch in a] if k == "oneOf"
            else _checked(a, root) if k in ("items", "additionalProperties") and a is not False else a
            for k, a in schema.items()}


def _walk(value, schema: dict, path: tuple, out: list) -> None:
    """Append to ``out`` each violation of ``schema`` by ``value`` at ``path``, worded and ordered as a Draft 7
    validator reports it: ``(path, message, keyword, whether value has schema's type, context)``. A ``oneOf``
    violation's context holds the violations of the branch of the value's type, if there is one.
    """
    def fail(message: str, keyword: str, context: list = ()) -> None:
        out.append((path, message, keyword, "type" in schema and _TYPES[schema["type"]](value), context))

    for keyword, arg in schema.items():
        if keyword == "type" and not _TYPES[arg](value):
            fail(f"{value!r} is not of type {arg!r}", keyword)
        elif keyword == "enum" and not any(isinstance(value, bool) == isinstance(x, bool) and value == x for x in arg):
            fail(f"{value!r} is not one of {arg!r}", keyword)
        elif keyword == "const" and not (isinstance(value, bool) == isinstance(arg, bool) and value == arg):
            fail(f"{arg!r} was expected", keyword)  # True == 1, but not in JSON
        elif keyword == "oneOf":
            branches, context = [b for b in arg if _TYPES[b["type"]](value)], []
            for branch in branches:
                _walk(value, branch, path, context)
            if context or not branches:
                fail(f"{value!r} is not valid under any of the given schemas", keyword, context)
        elif keyword == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                _walk(item, arg, (*path, i), out)
        elif keyword == "minItems" and isinstance(value, list) or keyword == "minLength" and isinstance(value, str):
            if len(value) < arg:
                fail(f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}", keyword)
        elif keyword in _BOUNDS and _TYPES["number"](value) and _BOUNDS[keyword][0](value, arg):
            fail(f"{value!r} is {_BOUNDS[keyword][1]} of {arg!r}", keyword)
        elif keyword == "required" and isinstance(value, dict):
            for name in [name for name in arg if name not in value]:
                fail(f"{name!r} is a required property", keyword)
        elif keyword == "properties" and isinstance(value, dict):
            for name in [name for name in arg if name in value]:
                _walk(value[name], arg[name], (*path, name), out)
        elif keyword == "additionalProperties" and isinstance(value, dict):
            extra = [name for name in value if name not in schema.get("properties", ())]
            for name in extra if arg is not False else ():
                _walk(value[name], arg, (*path, name), out)
            if arg is False and extra:
                names = ", ".join(map(repr, sorted(extra, key=str)))
                fail(f"Additional properties are not allowed ({names} {'was' if len(extra) == 1 else 'were'} "
                     "unexpected)", keyword)


def _validate(value, schema: dict, at: tuple = ()) -> None:
    """Raise a ``ScenarioFormatError`` at the violation a Draft 7 validator's ``best_match`` picks, ``at`` the
    pointer's prefix: the shallowest, the last path of those, then a keyword other than ``oneOf``, then a value
    of its schema's type; past a ``oneOf`` violation, the deepest of its context unless two of them tie.
    """
    rank = lambda violation: (-len(violation[0]), violation[0], violation[2] != "oneOf", not violation[3])
    found = []
    _walk(value, schema, (), found)
    if found:
        best = max(found, key=rank)
        while best[4]:
            first, *second = sorted(best[4], key=rank)[:2]
            if second and rank(first) == rank(second[0]):
                break
            best = first
        raise ScenarioFormatError(f"schema violation: {best[1]}", "/" + "/".join(map(str, (*at, *best[0]))))


_SCENARIO_SCHEMA, _SUMMARY_SCHEMA = (_checked(doc, doc) for doc in (
    _packaged("schemas", "scenario.schema.json"), _packaged("schemas", "summary.schema.json")))


def load_scenario(source) -> Scenario:
    """Parse and validate a scenario from a dict, JSON text, or a path.

    A string whose first non-blank character is ``{`` is JSON text of any
    length; any other string, or a ``Path``, names a file. Schema
    violations surface as ``ScenarioFormatError`` carrying a JSON pointer
    to the offending field; a missing file, unknown check, analysis, or
    generator names raise it too, the latter listing the known ones, and
    so do a parameter a check or analysis does not take or lacks, a
    repeated item name and a model that does not compile, each at its pointer.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            try:
                text = Path(source).read_text()
            except FileNotFoundError:
                raise ScenarioFormatError(f"scenario file not found: {source}") from None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"not valid JSON: {exc}") from exc

    _validate(doc, _SCENARIO_SCHEMA)
    _no_booleans(doc.get("model"), "/model")  # no model field is boolean, and numpy reads one as 0 or 1
    horizon = int(doc.get("horizon", 100))
    ensemble = int(doc.get("ensemble", 1))
    master_seed = int(doc.get("master_seed", 0))
    checks = [dict(c) for c in doc.get("checks", [])]
    analyses = [dict(a) for a in doc.get("analyses", [])]
    _refuse_bad_items(checks, analyses)

    model = _compile_model(doc.get("model"), horizon)
    snapshot_times = tuple(int(t) for t in doc.get("snapshot_times", []))
    return Scenario(
        scenario_id=doc["id"],
        model=model,
        horizon=horizon,
        ensemble=ensemble,
        master_seed=master_seed,
        snapshot_times=snapshot_times,
        checks=checks,
        analyses=analyses,
        outputs_dir=doc.get("outputs", {}).get("dir"),
        description=doc.get("description", ""),
        raw=doc,
    )


def _rho_from_spec(scenario: Scenario, T, doc: Optional[dict]) -> np.ndarray:
    """rho_1..rho_T of a check's ``rho`` spec ``doc`` (the model's by default); ``T`` defaults to the horizon."""
    T = _whole(scenario.horizon if T is None else T, "T")
    kind = "model" if doc is None else doc.get("kind", "model")
    if kind == "model":
        if scenario.model is None:
            raise ScenarioFormatError("rho kind 'model' needs a model in the scenario")
        return model_rho_sequence(scenario.model, T)
    if kind == "harmonic":
        return rho_harmonic(T)
    if kind == "exp_inverse_square":
        return rho_exp_inverse_square(T)
    if kind == "constant":
        return np.full(T, _real(doc["value"], "value"))
    if kind == "table":
        values = _finite(doc["values"], "values")
        if values.size < T:
            raise ScenarioFormatError(f"rho table has {values.size} values, the check needs T={T}")
        return values[:T]
    raise ScenarioFormatError(f"unknown rho kind {kind!r}; known: {_RHO_KINDS}")


# ---------------------------------------------------------------------------
# Checks


def _model_at_t1(scenario: Scenario):
    """The model and its step-1 ``(a, e, M, rho)``."""
    spec = scenario.model
    if spec is None:
        raise ScenarioFormatError("this check needs a model in the scenario")
    return spec, *next(_schedule(spec, 1))


def _check_base_rates(scenario: Scenario, *, beta=None, delta=None) -> cond.ConditionReport:
    _, a, e, _, _ = _model_at_t1(scenario)
    return cond.check_base_rates(a, e, beta=None if beta is None else _finite(beta, "beta"),
                                 delta=None if delta is None else _real(delta, "delta"))


def _check_average_rates(scenario: Scenario, *, strict=True) -> cond.ConditionReport:
    _, a, e, _, _ = _model_at_t1(scenario)
    if not isinstance(strict, bool):
        raise ScenarioFormatError(f"strict {strict!r} is not a boolean")
    return cond.check_average_rates(a, e, strict=strict)


def _check_product_to_zero(scenario: Scenario, *, T=None, rho=None, product_tol=cond.PRODUCT_TOL,
                           decrement_tol=cond.LOG_DECREMENT_TOL) -> cond.ConditionReport:
    return cond.check_product_to_zero(_rho_from_spec(scenario, T, rho), product_tol=_real(product_tol, "product_tol"),
                                      decrement_tol=_real(decrement_tol, "decrement_tol"))


def _check_ll1(scenario: Scenario, *, T=None, rho=None, sup_bound=cond.SUP_BOUND,
               growth_frac=cond.GROWTH_FRAC) -> cond.ConditionReport:
    return cond.check_ll1(_rho_from_spec(scenario, T, rho), sup_bound=_real(sup_bound, "sup_bound"),
                          growth_frac=_real(growth_frac, "growth_frac"))


def _check_ll1b(scenario: Scenario, *, T=None, summability_tol=cond.SUMMABILITY_TOL) -> cond.ConditionReport:
    spec = scenario.model
    if spec is None or spec.schedule_E is None:
        raise ScenarioFormatError("ll1b needs a model with rate schedules")
    matrix_at(spec.schedule_A, 0, spec.n)  # the check counts the agents from its first matrix, so it has n rows
    return cond.check_ll1b(spec.schedule_A, spec.schedule_E, _whole(scenario.horizon if T is None else T, "T"),
                           summability_tol=_real(summability_tol, "summability_tol"))


def _check_nonlinear_bounds(scenario: Scenario, *, grid=None, T=None) -> cond.ConditionReport:
    spec = scenario.model
    if spec is None or spec.family is not ModelFamily.NONLINEAR:
        raise ScenarioFormatError("nonlinear_bounds needs a nonlinear model")
    if grid is not None:
        grid = (np.linspace(*_finite(grid[:2], "grid"), _whole(grid[2], "grid point count")) if len(grid) == 3
                else _finite(grid, "grid"))
    T = _whole(max(scenario.horizon, 1) if T is None else T, "T")
    matrix_at(spec.schedule_A, 1, spec.n)  # the check counts the agents from its first matrix, at t = 1
    return cond.check_nonlinear_bounds(spec.learning_fn, spec.schedule_A, T, grid=grid)


_CHECKS: dict[str, Callable] = {
    "base_rates": _check_base_rates,
    "average_rates": _check_average_rates,
    "product_to_zero": _check_product_to_zero,
    "ll1": _check_ll1,
    "ll1b": _check_ll1b,
    "nonlinear_bounds": _check_nonlinear_bounds,
}


# ---------------------------------------------------------------------------
# Analyses


@dataclass(eq=False)
class RunContext:
    scenario: Scenario
    trajectory: Optional[Trajectory]
    ensemble: Optional[EnsembleSample]


def _an_consensus_time(ctx: RunContext, *, tol, target="sigma_bar") -> dict:
    if target == "sigma_bar":
        target = ctx.scenario.model.sigma_bar
    elif target is not None:
        target = _finite(target, "target")
    tol = _real(tol, "tol")
    return {"time": st.consensus_time(ctx.trajectory, target, tol), "tol": tol}


def _an_periodicity(ctx: RunContext, *, max_period, tol) -> dict:
    p = st.detect_periodicity(ctx.trajectory, _whole(max_period, "max_period"), _real(tol, "tol"))
    return {"period": p}


def _whole(value, name: str, unit: str = "number") -> int:
    """``value`` as an int; a fraction or a boolean is a scenario error, and ``int`` refuses a non-number."""
    whole = int(value)
    if whole != value or isinstance(value, bool):
        raise ScenarioFormatError(f"{name} {value!r} is not a whole {unit}")
    return whole


def _step(t, T: int) -> int:
    """A time an analysis names, as a step of 0..T; a fractional time or one outside is a scenario error."""
    step = _whole(t, "time", "step")
    if not 0 <= step <= T:
        raise ScenarioFormatError(f"time {t} lies outside the horizon 0..{T}")
    return step


def _sample_at(ctx: RunContext, t) -> st.EmpiricalSample:
    """The ensemble at time ``t``, the horizon when None."""
    return ctx.ensemble.to_empirical(None if t is None else _step(t, ctx.ensemble.t_final))


def _an_moments(ctx: RunContext, *, at=None) -> dict:
    mean, cov = st.empirical_moments(_sample_at(ctx, at).points)
    return {"mean": mean, "cov": cov}


def _an_ks(ctx: RunContext, *, at=None, coordinate=0, dist="cauchy", scale=1.0, mu=0.0, sigma=1.0,
           level=0.01) -> dict:
    pts = _sample_at(ctx, at).points
    coord = _whole(coordinate, "coordinate")
    if not 0 <= coord < pts.shape[1]:
        raise ScenarioFormatError(f"coordinate {coord} lies outside the components 0..{pts.shape[1] - 1}")
    if dist == "cauchy":
        scale = _real(scale, "scale")
        cdf = lambda x: st.cauchy_cdf(x, scale)
    elif dist == "normal":
        mu, sigma = _real(mu, "mu"), _real(sigma, "sigma")
        cdf = lambda x: st.normal_cdf(x, mu, sigma)
    else:
        raise ScenarioFormatError(f"unknown reference dist {dist!r}; known: ('cauchy', 'normal')")
    stat = st.ks_statistic(pts[:, coord], cdf)
    level = _real(level, "level")
    crit = st.ks_critical_value(pts.shape[0], level)
    return {"statistic": stat, "critical": crit, "level": level, "below_critical": bool(stat < crit)}


def _an_ks_best_fit_normal(ctx: RunContext, *, at=None, level=0.01) -> dict:
    pts = _sample_at(ctx, at).points
    m = pts.shape[0]
    level = _real(level, "level")
    crit = st.ks_critical_value(m, level)
    per = []
    for j in range(pts.shape[1]):
        x = pts[:, j]
        # equal points have no deviation, whatever rounding makes of it, and no normal law fits them
        mu, sd = float(x.mean()), float(x.std(ddof=1)) if x.min() < x.max() else 0.0
        stat = st.ks_statistic(x, lambda v: st.normal_cdf(v, mu, sd))
        per.append({"coordinate": j, "statistic": stat, "exceeds_critical": bool(stat > crit)})
    return {"critical": crit, "level": level, "per_coordinate": per}


def _an_drift(ctx: RunContext, *, times, decay_ratio=0.5) -> dict:
    samples = {s.t_final: s for s in (_sample_at(ctx, t) for t in times)}
    report = st.distribution_drift(samples, decay_ratio=_real(decay_ratio, "decay_ratio"))
    out = report.to_json()
    out["max_distance"] = report.max_distance()
    return out


def _constant_average_model(ctx: RunContext, name: str):
    """The model and its step-1 ``(a, e, M, rho)``, for an analysis of constant average-family updates."""
    spec = ctx.scenario.model
    if spec.family is not ModelFamily.AVERAGE:
        raise ScenarioFormatError(f"{name} applies to the average family")
    if not isinstance(spec.schedule_A, Constant) or not isinstance(spec.schedule_E, Constant):
        raise ScenarioFormatError(f"{name} needs constant A and E schedules")
    return _model_at_t1(ctx.scenario)


def _an_clt_check(ctx: RunContext, *, product_t_max=None, rank_one_tol=1e-10, rel_tol=0.15, score_tol=0.05) -> dict:
    spec, _, e, b, _ = _constant_average_model(ctx, "clt_check")
    if spec.noise.kind == "gaussian":
        sigma = spec.noise.sigma
    elif spec.noise.kind == "rademacher":
        sigma = np.eye(spec.n)
    else:
        raise ScenarioFormatError("clt_check needs gaussian or rademacher noise")
    t_max = _whole(4 * ctx.scenario.horizon if product_t_max is None else product_t_max, "product_t_max")
    c, converged = product_limit(b, t_max=t_max, rank_one_tol=_real(rank_one_tol, "rank_one_tol"))
    target = st.clt_target(c, e, sigma)
    ens = ctx.ensemble
    pts = ens.terminal_states
    scaled = (pts - pts.mean(axis=0)) / np.sqrt(ens.t_final)
    _, emp = st.empirical_moments(scaled)
    rel = np.abs(emp - target.covariance) / np.abs(target.covariance)
    score = st.rank_one_score(emp)
    rel_tol = _real(rel_tol, "rel_tol")
    score_tol = _real(score_tol, "score_tol")
    return {
        "product_converged": bool(converged),
        "target_cov": target.covariance,
        "empirical_cov": emp,
        "max_rel_err": float(rel.max()),
        "rel_tol": rel_tol,
        "rank_one_score": score,
        "score_tol": score_tol,
        "within_tol": bool(rel.max() <= rel_tol and score < score_tol),
    }


def _an_rank_one(ctx: RunContext, *, at=None) -> dict:
    _, cov = st.empirical_moments(_sample_at(ctx, at).points)
    return {"score": st.rank_one_score(cov)}


def _an_product_limit(ctx: RunContext, *, t_max=1000, rank_one_tol=1e-10) -> dict:
    _, _, _, b, _ = _constant_average_model(ctx, "product_limit")
    c, converged = product_limit(b, t_max=_whole(t_max, "t_max"), rank_one_tol=_real(rank_one_tol, "rank_one_tol"))
    nu = c.entries[0]
    residual = float(np.max(np.abs(nu @ b - nu)))
    pair = 2.0 * dobrushin(c.entries)
    return {
        "converged": bool(converged),
        "nu": nu,
        "stationarity_residual": residual,
        "max_row_pair_l1": pair,
    }


def _an_oscillation_final(ctx: RunContext) -> dict:
    return {"oscillation": oscillation(ctx.trajectory.states[-1])}


def _an_contraction_envelope(ctx: RunContext) -> dict:
    """Run 0 contracts at every step: ``err_inf[t] <= rho_t * err_inf[t-1] + 1e-12`` for t = 1..T."""
    err, rho = ctx.trajectory.err_inf, ctx.trajectory.rho[1:]
    if err.size < 2 or np.isnan(rho).any() or np.isnan(err).any():
        raise ValueError("the contraction envelope needs a step, and a rho_t and err_inf at every step")
    excess = err[1:] - rho * err[:-1]
    t = int(np.argmax(excess))
    return {"holds": bool(excess[t] <= 1e-12), "max_excess": float(excess[t]), "step": t + 1}


def _an_mean_error_checkpoints(ctx: RunContext, *, times) -> dict:
    curve = ctx.ensemble.mean_err_inf
    if curve is None:
        raise ScenarioFormatError("mean-error tracking was not enabled for this run")
    times = [_step(t, ctx.ensemble.t_final) for t in times]
    vals = [float(curve[t]) for t in times]
    monotone = all(vals[k + 1] < vals[k] for k in range(len(vals) - 1))
    return {"times": times, "values": vals, "monotone_decreasing": monotone, "final": vals[-1]}


_ANALYSES: dict[str, Callable] = {
    "consensus_time": _an_consensus_time,
    "periodicity": _an_periodicity,
    "moments": _an_moments,
    "ks": _an_ks,
    "ks_best_fit_normal": _an_ks_best_fit_normal,
    "drift": _an_drift,
    "clt_check": _an_clt_check,
    "rank_one": _an_rank_one,
    "product_limit": _an_product_limit,
    "oscillation_final": _an_oscillation_final,
    "contraction_envelope": _an_contraction_envelope,
    "mean_error_checkpoints": _an_mean_error_checkpoints,
}


def _params(fn: Callable, required: bool = False) -> tuple:
    """The parameters a check or analysis takes: its keyword-only arguments, or only those without a default."""
    return tuple(p.name for p in inspect.signature(fn).parameters.values()
                 if p.kind is p.KEYWORD_ONLY and not (required and p.default is not p.empty))


def _refuse_bad_items(checks: list, analyses: list) -> None:
    """Refuse an item that names no check or analysis, repeats a name, or has a parameter too many or too few."""
    for group, what, table, items in (("checks", "check", _CHECKS, checks),
                                      ("analyses", "analysis", _ANALYSES, analyses)):
        names = [item["name"] for item in items]
        for i, (name, item) in enumerate(zip(names, items)):
            if name not in table:
                raise ScenarioFormatError(f"unknown {what} {name!r}; known: {tuple(table)}", f"/{group}/{i}/name")
            if name in names[:i]:  # rows and overrides address an item by its name
                raise ScenarioFormatError(f"{what} {name!r} is repeated", f"/{group}/{i}/name")
            known = _params(table[name])
            unknown = [p for p in item if p not in (*known, "name")]
            if unknown:
                raise ScenarioFormatError(f"{what} {name!r} takes no parameter {unknown[0]!r}; known: {known}",
                                          f"/{group}/{i}/{unknown[0]}")
            missing = [p for p in _params(table[name], required=True) if p not in item]
            if missing:
                raise ScenarioFormatError(f"{what} {name!r} needs parameter {missing[0]!r}", f"/{group}/{i}")


def _call(table: dict, first, item: dict):
    """The check or analysis of ``table`` that ``item`` names, run on ``first`` with the item's other fields."""
    return table[item["name"]](first, **{k: v for k, v in item.items() if k != "name"})


# ---------------------------------------------------------------------------
# Running and persistence


@dataclass(eq=False)
class RunSummary:
    """Everything a run produced, ready to serialize."""

    scenario_id: str
    master_seed: int
    horizon: int
    ensemble: int
    checks: list
    analyses: dict
    diagnostics: dict
    timing: dict
    seed_provenance: dict
    outputs: dict
    ok: bool

    def to_json(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **vars(self)}


def validate_summary(doc: dict) -> None:
    """Check a summary document against the packaged schema; a violation raises ``ScenarioFormatError``."""
    _validate(doc, _SUMMARY_SCHEMA)


# Most values formatted at once, so memory stays small at any width or run
# count. A slice's values go to orjson flattened, in one call: orjson and
# ``repr`` both give the shortest digits that read back (Ryu; Gay's dtoa),
# spelled alike for 0 and 1e-4 <= |x| < 1e16, where ``repr`` uses no
# exponent. orjson writes NaN as ``null``, rewritten to ``nan``, and ±inf as
# ``null`` too, so each ±inf, nonzero |x| < 1e-4 and |x| >= 1e16 is written
# by ``%r`` alone. Each slice's first orjson value is checked against ``%r``.
_CSV_SLICE_VALUES = 2**10


def _lines(first: int, block: np.ndarray) -> bytes:
    """Rows ``first ..`` of ``block``: the index, then each value's ``repr``, lines ending in ``\r\n``.

    The first value orjson writes is compared with its ``%r``; an orjson that
    spells it differently raises ``AssertionError`` naming it.
    """
    rows, cols = block.shape
    values = block.ravel()
    mag = np.abs(values)
    slow = (mag >= 1e16) | (mag < 1e-4) & (mag != 0.0)
    cells = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].replace(b"null", b"nan").split(b",")
    for i in np.flatnonzero(~slow)[:1].tolist():
        x = float(values[i])
        if cells[i] != b"%r" % x:
            raise AssertionError(f"orjson spells {x!r} differently from repr")
    slow = np.flatnonzero(slow)
    for i, x in zip(slow.tolist(), values[slow].tolist()):
        cells[i] = b"%r" % x
    line = [None] * (rows * (cols + 1))
    line[:: cols + 1] = range(first, first + rows)
    for j in range(min(rows, cols)):  # interleaved by the shorter axis: a column, or a row, a slice
        if cols <= rows:
            line[j + 1 :: cols + 1] = cells[j::cols]
        else:
            line[j * (cols + 1) + 1 : (j + 1) * (cols + 1)] = cells[j * cols : (j + 1) * cols]
    return (b"%d" + b",%b" * cols + b"\r\n") * rows % tuple(line)


def _write_csv(path: Path, header: list, first: int, columns: tuple) -> None:
    """Write ``header``, then per row its index (counted from ``first``) and ``columns``.

    Floats are written as their ``repr`` and lines end in ``\r\n``, byte for
    byte what ``csv.writer`` writes. Each slice of rows is formatted by one
    orjson call and ``%r`` for the values orjson spells otherwise (see
    ``_CSV_SLICE_VALUES``).
    """
    rows, step = columns[0].shape[0], max(1, _CSV_SLICE_VALUES // len(header))
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        for a in range(0, rows, step):
            block = np.column_stack([c[a : a + step] for c in columns]).astype(float, copy=False)
            fh.write(_lines(first + a, block))


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """Columns: t, one per component, then err_inf and osc; terminal-only: one row, at t = horizon."""
    rows, n = traj.states.shape
    first = traj.horizon + 1 - rows
    header = ["t"] + [f"component_{j}" for j in range(n)] + ["err_inf", "osc"]
    _write_csv(path, header, first, (traj.states, traj.err_inf[first:], traj.osc[first:]))


def write_ensemble_csv(path: Path, ens: EnsembleSample) -> None:
    """Columns: run, one per component; one row per run, terminal states."""
    n = ens.terminal_states.shape[1]
    _write_csv(path, ["run"] + [f"component_{j}" for j in range(n)], 0, (ens.terminal_states,))


def _resolve(
    scenario: Scenario,
    horizon: Optional[int] = None,
    ensemble: Optional[int] = None,
    master_seed: Optional[int] = None,
    overrides: Optional[dict] = None,
) -> Scenario:
    """The scenario a run makes: its horizon, ensemble and seed, and every item's overrides merged.

    ``overrides`` maps ``name.param`` to a value; a key naming no check or
    analysis of the scenario or a parameter it does not take, or a value
    the scenario schema refuses, is an error, and so is a horizon, ensemble
    or seed with a fraction or a boolean. A changed horizon recompiles the
    model from its document, since the oscillating rate table spans it.
    """
    known = [item["name"] for item in scenario.checks + scenario.analyses]
    merged: dict = {}
    for key, value in (overrides or {}).items():
        name, _, param = key.partition(".")
        if name not in known or not param:
            raise ScenarioFormatError(
                f"override {key!r} names no check or analysis parameter; known names: {known}"
            )
        merged.setdefault(name, {})[param] = value
    resolved = {"horizon": scenario.horizon, "ensemble": scenario.ensemble, "master_seed": scenario.master_seed}
    for name, value in (("horizon", horizon), ("ensemble", ensemble), ("master_seed", master_seed)):
        if value is not None:
            with _invalid(name, f"/{name}"):
                resolved[name] = _whole(value, name)
            _validate(resolved[name], _SCENARIO_SCHEMA["properties"][name], (name,))
    checks = [{**item, **merged.get(item["name"], {})} for item in scenario.checks]
    analyses = [{**item, **merged.get(item["name"], {})} for item in scenario.analyses]
    if merged:
        _refuse_bad_items(checks, analyses)
        _validate(checks, _SCENARIO_SCHEMA["properties"]["checks"], ("checks",))
    model = scenario.model
    if resolved["horizon"] != scenario.horizon and "model" in scenario.raw:
        model = _compile_model(scenario.raw["model"], resolved["horizon"])
    return replace(scenario, **resolved, checks=checks, analyses=analyses, model=model)


def _execute(scenario: Scenario, out_dir=None) -> tuple[RunSummary, RunContext]:
    """Run a resolved scenario: its checks, its simulation, its analyses, and the artifacts."""
    clock = time.perf_counter
    t0 = clock()
    T = scenario.horizon

    ok = True
    check_rows = []
    for item in scenario.checks:
        try:
            report = _call(_CHECKS, scenario, item)
            check_rows.append(report.to_json())
        except Exception as exc:
            ok = False
            check_rows.append({"name": item["name"], "error": f"{type(exc).__name__}: {exc}"})
    checked = clock()

    trajectory = None
    ens = None
    diagnostics: dict = {}
    engine_s = dict.fromkeys(("fill_s", "transform_s", "step_s", "observe_s"), 0.0)
    if scenario.model is not None:
        # the scenario's own snapshot times must lie in 0..T; a time an analysis reads is
        # recorded where it is a step of 0..T, and otherwise reported in that analysis's row
        outside = sorted(t for t in scenario.snapshot_times if not 0 <= t <= T)
        if outside:
            ok = False
            diagnostics["snapshot_times_outside"] = outside
        times = set(scenario.snapshot_times)
        for item in scenario.analyses:
            wanted = item.get("times", []) if item["name"] == "drift" else [item.get("at")]
            with suppress(TypeError, ValueError, OverflowError):
                times.update(_step(t, T) for t in wanted if t is not None)
        ens = simulate_ensemble(
            scenario.model, T, scenario.ensemble, scenario.master_seed,
            snapshot_times=sorted(t for t in times if 0 <= t <= T),
            track_mean_err=any(item["name"] == "mean_error_checkpoints" for item in scenario.analyses),
        )
        trajectory = ens.run0
        diagnostics["engine"] = ens.engine
        engine_s = dict(ens.timing)
        # NaN/inf never returns to finite under these updates, so the terminal state decides
        diagnostics["nonfinite_runs"] = int(np.sum(~np.isfinite(ens.terminal_states).all(axis=1)))
        bad = ~np.isfinite(trajectory.states).all(axis=1)
        diagnostics["first_nonfinite_step"] = int(np.argmax(bad)) if bad.any() else None
        if diagnostics["nonfinite_runs"]:
            ok = False
        # run 0's stability: null where no figure or no target applies
        rho = trajectory.rho[~np.isnan(trajectory.rho)]
        diagnostics["rho_max"] = float(rho.max()) if rho.size else None
        diagnostics["err_final"] = trajectory.err_inf[-1]
        diagnostics["osc_final"] = trajectory.osc[-1]
        if scenario.model.family is ModelFamily.AVERAGE:
            # steps with no mixing at all (coefficient zero up to float dust)
            diagnostics["dobrushin_zero_steps"] = int(np.sum(trajectory.rho[1:] <= 1e-12))

    ctx = RunContext(scenario=scenario, trajectory=trajectory, ensemble=ens)
    analysis_rows: dict = {}
    analysis_s: dict = {}
    for item in scenario.analyses:
        started = clock()
        try:
            if ens is None:
                raise ScenarioFormatError(f"analysis {item['name']!r} needs a model")
            analysis_rows[item["name"]] = _call(_ANALYSES, ctx, item)
        except Exception as exc:
            ok = False
            analysis_rows[item["name"]] = {"error": f"{type(exc).__name__}: {exc}"}
        analysis_s[item["name"]] = clock() - started
    analysed = clock()

    target_dir = Path(out_dir) if out_dir is not None else Path(scenario.outputs_dir or f"out/{scenario.scenario_id}")
    target_dir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    # the writers are looked up here, at each run, so a wrapper set on the module by name is the one called
    for name, write, result in (("trajectory", write_trajectory_csv, trajectory),
                                ("ensemble", write_ensemble_csv, ens)):
        if result is not None:
            p = target_dir / f"{name}.csv"
            write(p, result)
            outputs[f"{name}_csv"] = str(p)
    analysis_rows, diagnostics = cond._sanitize(analysis_rows), cond._sanitize(diagnostics)

    timing = {"checks_s": checked - t0, "engine": engine_s}
    timing["analyses_s"] = analysed - checked - sum(engine_s.values())  # the diagnostics too
    timing["analyses"] = analysis_s  # each analysis item's share of analyses_s
    summary = RunSummary(
        scenario_id=scenario.scenario_id,
        master_seed=scenario.master_seed,
        horizon=T,
        ensemble=scenario.ensemble,
        checks=check_rows,
        analyses=analysis_rows,
        diagnostics=diagnostics,
        timing=timing,
        seed_provenance={"master_seed": scenario.master_seed, "stream": STREAM_PROVENANCE},
        outputs=outputs,
        ok=ok,
    )
    # The phases share clock boundaries, so they add up to total_s: write_s is
    # the rest, the CSV files, sanitising and summary.json. The summary is
    # encoded with a slot object for its timing; orjson calls ``default`` when
    # it reaches the slot, after encoding everything before it, so the clock
    # stops there and the timing dict ``default`` returns is encoded in place.
    slot = object()

    def fill_timing(o):
        if o is not slot:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        total = clock() - t0
        timing["write_s"] = total - (timing["checks_s"] + sum(engine_s.values()) + timing["analyses_s"])
        timing["total_s"] = total
        return timing

    p = target_dir / "summary.json"
    p.write_bytes(orjson.dumps({**summary.to_json(), "timing": slot}, default=fill_timing, option=orjson.OPT_INDENT_2))
    summary.outputs["summary_json"] = str(p)
    return summary, ctx


def run_scenario(
    scenario: Scenario,
    out_dir=None,
    *,
    horizon: Optional[int] = None,
    ensemble: Optional[int] = None,
    master_seed: Optional[int] = None,
    overrides: Optional[dict] = None,
) -> RunSummary:
    """Execute checks, simulation, and analyses; persist the artifacts.

    Item failures are recorded in the summary and do not stop the run; the
    summary's ``ok`` flag reports whether everything succeeded. Output goes
    to ``out_dir``, falling back to the scenario's own directive and then
    to ``out/<id>``.
    """
    return _execute(_resolve(scenario, horizon, ensemble, master_seed, overrides), out_dir)[0]


# ---------------------------------------------------------------------------
# Catalog


_CASES = {case["id"]: case for case in _packaged("catalog", "manifest.json")["cases"]}


def catalog() -> list[str]:
    """Identifiers of the built-in reproducible cases, in manifest order."""
    return list(_CASES)


def catalog_description(case_id: str) -> str:
    return _CASES[case_id]["demonstrates"]


def load_catalog_scenario(case_id: str) -> Scenario:
    if case_id not in _CASES:
        raise ScenarioFormatError(f"unknown catalog id {case_id!r}; known: {catalog()}")
    return load_scenario(_packaged("catalog", f"{case_id}.json"))


# Acceptance for `reproduce`: each manifest case lists under ``expect`` the
# rows its finished summary must meet. A row's ``path`` reads
# ``checks.<name>.<field>``, ``analyses.<name>.<field>`` or
# ``diagnostics.<field>``, nested fields joined by dots, and ``<field>[*]``
# means every element of a list. A missing or null value fails every op, and
# so does ``[*]`` over a missing or empty list.

_OPS: dict[str, Callable] = {
    "eq": lambda v, row: v == row["bound"],
    "lt": lambda v, row: v < row["bound"],
    "le": lambda v, row: v <= row["bound"],
    "gt": lambda v, row: v > row["bound"],
    "not_null": lambda v, row: True,
    "close_to": lambda v, row: abs(v - row["bound"]) < (
        row["abs_tol"] if "abs_tol" in row else row["rel_tol"] * abs(row["bound"])),
}


def _values(node, keys: list) -> list:
    """The values at ``keys`` below ``node``: one, or one per element past a ``[*]``; None where missing."""
    for i, key in enumerate(keys):
        node = node.get(key.removesuffix("[*]")) if isinstance(node, dict) else None
        if key.endswith("[*]"):
            if not isinstance(node, list) or not node:
                return [None]
            return [v for item in node for v in _values(item, keys[i + 1:])]
    return [node]


def _verdict(expect: list, summary: RunSummary, ctx: Optional[RunContext] = None) -> tuple[bool, str]:
    """Whether ``summary`` meets every row of ``expect``, and each row's actual value against its bound."""
    doc = {"checks": {row["name"]: row for row in summary.checks},
           "analyses": summary.analyses, "diagnostics": summary.diagnostics}
    passed, detail = True, []
    for row in expect:
        values = _values(doc, row["path"].split("."))
        held = all(v is not None and _OPS[row["op"]](v, row) for v in values)
        passed = passed and held
        actual = values if "[*]" in row["path"] else values[0]
        bound = "".join(f" {row[k]!r}" if k == "bound" else f" ({k} {row[k]!r})"
                        for k in ("bound", "abs_tol", "rel_tol") if k in row)
        detail.append(f"{'' if held else 'FAILED '}{row['path']}={actual!r} {row['op']}{bound}")
    return passed, "; ".join(detail)


# the verdict of each catalog case, called as (summary, ctx) -> (passed, detail)
_PREDICATES = {case_id: partial(_verdict, case["expect"]) for case_id, case in _CASES.items()}


def reproduce(case_id: str, out_dir=None) -> tuple[RunSummary, bool, str]:
    """Run a catalog case and check it against the expectations its manifest entry lists."""
    summary, ctx = _execute(load_catalog_scenario(case_id), out_dir=out_dir)
    passed, detail = _PREDICATES[case_id](summary, ctx)
    return summary, passed, detail
