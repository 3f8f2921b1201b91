"""Scenario ingestion, the reproducible-case catalog, and run orchestration.

Scenarios are JSON documents validated against the packaged schema
(``schemas/scenario.schema.json``, ``schema_version`` 1). A run executes
the requested hypothesis checks, simulates the model, applies the
requested analyses, and persists three artifacts: a trajectory CSV, an
ensemble CSV, and a summary JSON. Everything is a pure function of the
scenario plus its master seed, so re-running reproduces the CSV bytes.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_left
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import jsonschema

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
from .matrices import dobrushin, oscillation, product_limit
from .noise import NoiseSpec, epsilon_oscillator_sequence
from .schedules import Constant, Table, rho_exp_inverse_square, rho_harmonic

SCHEMA_VERSION = 1

_SCHEDULE_KINDS = ("constant", "table", "epsilon_oscillator")
_RHO_KINDS = ("model", "constant", "table", "harmonic", "exp_inverse_square")
_TIME_SCALE_KINDS = ("constant", "inverse_t", "geometric")
_LEARNING_KINDS = ("linear", "scaled_tanh", "scaled_sign")


def _load_schema(name: str) -> dict:
    path = resources.files("consensuslab") / "schemas" / name
    return json.loads(path.read_text())


_SCENARIO_SCHEMA = _load_schema("scenario.schema.json")
_SUMMARY_SCHEMA = _load_schema("summary.schema.json")


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
        v = float(doc.get("value", 1.0))
        return lambda t: v
    if kind == "inverse_t":
        return lambda t: 1.0 / t
    if kind == "geometric":
        r = float(doc["rate"])

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
    raise ValueError(f"unknown time_scale kind {kind!r}; known: {_TIME_SCALE_KINDS}")


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
    if kind == "scaled_sign":
        return scaled_sign_learning(float(doc["step"]))
    raise ValueError(f"unknown learning_fn kind {kind!r}; known: {_LEARNING_KINDS}")


def _finite(value) -> np.ndarray:
    """``value`` as a float array, refused if any entry is NaN or infinite."""
    a = np.asarray(value, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("entries must be finite")
    return a


def _compile_matrix_schedule(doc: dict):
    kind = doc.get("kind")
    if kind == "constant":
        return Constant(_finite(doc["matrix"]))
    if kind == "table":
        return Table([_finite(m) for m in doc["matrices"]], t0=0)
    raise ValueError(f"unknown weights-schedule kind {kind!r}; known for A: ('constant', 'table')")


def _compile_rate_schedule(doc: dict, horizon: int):
    kind = doc.get("kind")
    if kind == "constant":
        if "eps" not in doc and "value" not in doc:
            raise ValueError("constant rate schedule needs 'eps'")
        return Constant(_finite(doc.get("eps", doc.get("value"))))
    if kind == "table":
        return Table([_finite(v) for v in doc["values"]], t0=0)
    if kind == "epsilon_oscillator":
        return Table(epsilon_oscillator_sequence(max(horizon, 1)), t0=0)
    raise ValueError(f"unknown rate-schedule kind {kind!r}; known: {_SCHEDULE_KINDS}")


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


def load_scenario(source) -> Scenario:
    """Parse and validate a scenario from a dict, JSON text, or a path.

    A string whose first non-blank character is ``{`` is JSON text of any
    length; any other string, or a ``Path``, names a file. Schema
    violations surface as ``ScenarioFormatError`` carrying a JSON pointer
    to the offending field; a missing file, unknown check, analysis, or
    generator names raise it too, the latter listing the known ones, and
    so does a model that does not compile, at the pointer of its part.
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

    validator = jsonschema.Draft7Validator(_SCENARIO_SCHEMA)
    errors = list(validator.iter_errors(doc))
    if errors:
        e = jsonschema.exceptions.best_match(errors)
        pointer = "/" + "/".join(str(x) for x in e.absolute_path)
        raise ScenarioFormatError(f"schema violation: {e.message}", pointer)

    horizon = int(doc.get("horizon", 100))
    ensemble = int(doc.get("ensemble", 1))
    master_seed = int(doc.get("master_seed", 0))
    checks = [dict(c) for c in doc.get("checks", [])]
    analyses = [dict(a) for a in doc.get("analyses", [])]
    for c in checks:
        if c["name"] not in _CHECKS:
            raise ScenarioFormatError(f"unknown check {c['name']!r}; known: {tuple(_CHECKS)}", "/checks")
    for a in analyses:
        if a["name"] not in _ANALYSES:
            raise ScenarioFormatError(f"unknown analysis {a['name']!r}; known: {tuple(_ANALYSES)}", "/analyses")

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


def _rho_from_spec(scenario: Scenario, params: dict) -> np.ndarray:
    """rho_1..rho_T of a check's ``rho`` spec (the model's by default); ``T`` defaults to the horizon."""
    T = int(params.get("T", scenario.horizon))
    doc = params.get("rho", {"kind": "model"})
    kind = doc.get("kind", "model")
    if kind == "model":
        if scenario.model is None:
            raise ScenarioFormatError("rho kind 'model' needs a model in the scenario")
        return model_rho_sequence(scenario.model, T)
    if kind == "harmonic":
        return rho_harmonic(T)
    if kind == "exp_inverse_square":
        return rho_exp_inverse_square(T)
    if kind == "constant":
        return np.full(T, float(doc["value"]))
    if kind == "table":
        values = np.asarray(doc["values"], dtype=float)
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


def _check_base_rates(scenario: Scenario, params: dict) -> cond.ConditionReport:
    _, a, e, _, _ = _model_at_t1(scenario)
    return cond.check_base_rates(a, e, beta=params.get("beta"), delta=params.get("delta"))


def _check_average_rates(scenario: Scenario, params: dict) -> cond.ConditionReport:
    _, a, e, _, _ = _model_at_t1(scenario)
    return cond.check_average_rates(a, e, strict=bool(params.get("strict", True)))


def _check_product_to_zero(scenario: Scenario, params: dict) -> cond.ConditionReport:
    return cond.check_product_to_zero(
        _rho_from_spec(scenario, params),
        product_tol=float(params.get("product_tol", cond.PRODUCT_TOL)),
        decrement_tol=float(params.get("decrement_tol", cond.LOG_DECREMENT_TOL)),
    )


def _check_ll1(scenario: Scenario, params: dict) -> cond.ConditionReport:
    return cond.check_ll1(
        _rho_from_spec(scenario, params),
        sup_bound=float(params.get("sup_bound", cond.SUP_BOUND)),
        growth_frac=float(params.get("growth_frac", cond.GROWTH_FRAC)),
    )


def _check_ll1b(scenario: Scenario, params: dict) -> cond.ConditionReport:
    spec = scenario.model
    if spec is None or spec.schedule_E is None:
        raise ScenarioFormatError("ll1b needs a model with rate schedules")
    T = int(params.get("T", scenario.horizon))
    return cond.check_ll1b(
        spec.schedule_A,
        spec.schedule_E,
        T,
        summability_tol=float(params.get("summability_tol", cond.SUMMABILITY_TOL)),
    )


def _check_nonlinear_bounds(scenario: Scenario, params: dict) -> cond.ConditionReport:
    spec = scenario.model
    if spec is None or spec.family is not ModelFamily.NONLINEAR:
        raise ScenarioFormatError("nonlinear_bounds needs a nonlinear model")
    grid = params.get("grid")
    if grid is not None and len(grid) == 3:
        grid = np.linspace(float(grid[0]), float(grid[1]), int(grid[2]))
    T = int(params.get("T", max(scenario.horizon, 1)))
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


def _an_consensus_time(ctx: RunContext, params: dict) -> dict:
    target = params.get("target", "sigma_bar")
    if target == "sigma_bar":
        target = ctx.scenario.model.sigma_bar
    t = st.consensus_time(ctx.trajectory, target, float(params["tol"]))
    return {"time": t, "tol": float(params["tol"])}


def _an_periodicity(ctx: RunContext, params: dict) -> dict:
    p = st.detect_periodicity(ctx.trajectory, int(params["max_period"]), float(params["tol"]))
    return {"period": p}


def _sample_at(ctx: RunContext, t) -> st.EmpiricalSample:
    """The ensemble at time ``t``, the horizon when None; a time outside 0..horizon is a scenario error."""
    T = ctx.ensemble.t_final
    if t is not None and not 0 <= int(t) <= T:
        raise ScenarioFormatError(f"time {t} lies outside the horizon 0..{T}")
    return ctx.ensemble.to_empirical(None if t is None else int(t))


def _ens_points(ctx: RunContext, params: dict) -> np.ndarray:
    return _sample_at(ctx, params.get("at")).points


def _an_moments(ctx: RunContext, params: dict) -> dict:
    mean, cov = st.empirical_moments(_ens_points(ctx, params))
    return {"mean": mean, "cov": cov}


def _an_ks(ctx: RunContext, params: dict) -> dict:
    pts = _ens_points(ctx, params)
    coord = int(params.get("coordinate", 0))
    dist = params.get("dist", "cauchy")
    if dist == "cauchy":
        scale = float(params.get("scale", 1.0))
        cdf = lambda x: st.cauchy_cdf(x, scale)
    elif dist == "normal":
        cdf = lambda x: st.normal_cdf(x, float(params.get("mu", 0.0)), float(params.get("sigma", 1.0)))
    else:
        raise ScenarioFormatError(f"unknown reference dist {dist!r}; known: ('cauchy', 'normal')")
    stat = st.ks_statistic(pts[:, coord], cdf)
    level = float(params.get("level", 0.01))
    crit = st.ks_critical_value(pts.shape[0], level)
    return {"statistic": stat, "critical": crit, "level": level, "below_critical": bool(stat < crit)}


def _an_ks_best_fit_normal(ctx: RunContext, params: dict) -> dict:
    pts = _ens_points(ctx, params)
    m = pts.shape[0]
    level = float(params.get("level", 0.01))
    crit = st.ks_critical_value(m, level)
    per = []
    for j in range(pts.shape[1]):
        x = pts[:, j]
        # equal points have no deviation, whatever rounding makes of it, and no normal law fits them
        mu, sd = float(x.mean()), float(x.std(ddof=1)) if x.min() < x.max() else 0.0
        stat = st.ks_statistic(x, lambda v: st.normal_cdf(v, mu, sd))
        per.append({"coordinate": j, "statistic": stat, "exceeds_critical": bool(stat > crit)})
    return {"critical": crit, "level": level, "per_coordinate": per}


def _an_drift(ctx: RunContext, params: dict) -> dict:
    samples = {int(t): _sample_at(ctx, t) for t in params["times"]}
    report = st.distribution_drift(samples, decay_ratio=float(params.get("decay_ratio", 0.5)))
    out = report.to_json()
    out["max_distance"] = report.max_distance()
    return out


def _constant_model_pieces(ctx: RunContext):
    spec = ctx.scenario.model
    if not isinstance(spec.schedule_A, Constant) or not isinstance(spec.schedule_E, Constant):
        raise ScenarioFormatError("this analysis needs constant A and E schedules")
    return _model_at_t1(ctx.scenario)


def _an_clt_check(ctx: RunContext, params: dict) -> dict:
    spec, _, e, b, _ = _constant_model_pieces(ctx)
    if spec.family is not ModelFamily.AVERAGE:
        raise ScenarioFormatError("clt_check applies to the average family")
    if spec.noise.kind == "gaussian":
        sigma = spec.noise.sigma
    elif spec.noise.kind == "rademacher":
        sigma = np.eye(spec.n)
    else:
        raise ScenarioFormatError("clt_check needs gaussian or rademacher noise")
    c, converged = product_limit(b, t_max=int(params.get("product_t_max", 4 * ctx.scenario.horizon)),
                                 rank_one_tol=float(params.get("rank_one_tol", 1e-10)))
    target = st.clt_target(c, e, sigma)
    ens = ctx.ensemble
    pts = ens.terminal_states
    scaled = (pts - pts.mean(axis=0)) / np.sqrt(ens.t_final)
    _, emp = st.empirical_moments(scaled)
    rel = np.abs(emp - target.covariance) / np.abs(target.covariance)
    score = st.rank_one_score(emp)
    rel_tol = float(params.get("rel_tol", 0.15))
    score_tol = float(params.get("score_tol", 0.05))
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


def _an_rank_one(ctx: RunContext, params: dict) -> dict:
    _, cov = st.empirical_moments(_ens_points(ctx, params))
    return {"score": st.rank_one_score(cov)}


def _an_product_limit(ctx: RunContext, params: dict) -> dict:
    spec, _, _, b, _ = _constant_model_pieces(ctx)
    if spec.family is not ModelFamily.AVERAGE:
        raise ScenarioFormatError("product_limit applies to the average family's update matrices")
    c, converged = product_limit(
        b, t_max=int(params.get("t_max", 1000)), rank_one_tol=float(params.get("rank_one_tol", 1e-10))
    )
    nu = c.entries[0]
    residual = float(np.max(np.abs(nu @ b - nu)))
    pair = 2.0 * dobrushin(c.entries)
    return {
        "converged": bool(converged),
        "nu": nu,
        "stationarity_residual": residual,
        "max_row_pair_l1": pair,
    }


def _an_oscillation_final(ctx: RunContext, params: dict) -> dict:
    return {"oscillation": oscillation(ctx.trajectory.states[-1])}


def _an_mean_error_checkpoints(ctx: RunContext, params: dict) -> dict:
    curve = ctx.ensemble.mean_err_inf
    if curve is None:
        raise ScenarioFormatError("mean-error tracking was not enabled for this run")
    times = [int(t) for t in params["times"]]
    T = ctx.ensemble.t_final
    if any(t < 0 or t > T for t in times):
        raise ScenarioFormatError(f"mean-error checkpoint times must lie in 0..{T}, got {times}")
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
    "mean_error_checkpoints": _an_mean_error_checkpoints,
}


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
    """Check a summary document against the packaged schema."""
    jsonschema.Draft7Validator(_SUMMARY_SCHEMA).validate(doc)


# Most values formatted at once. Each slice of rows is stacked, converted
# with one ``tolist`` and written with one ``%`` of a repeated row template,
# so memory stays small at any width or run count.
_CSV_SLICE_VALUES = 2**10


def _write_csv(path: Path, header: list, first: int, columns: tuple) -> None:
    """Write ``header``, then per row its index (counted from ``first``) and ``columns``.

    Floats are written as their ``repr`` and lines end in ``\r\n``, byte for
    byte what ``csv.writer`` writes.
    """
    rows, step = columns[0].shape[0], max(1, _CSV_SLICE_VALUES // len(header))
    row = "%d" + ",%r" * (len(header) - 1) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for a in range(0, rows, step):
            b = min(a + step, rows)
            block = np.column_stack([np.arange(first + a, first + b), *(c[a:b] for c in columns)])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


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
    analysis of the scenario is an error. A changed horizon recompiles the
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
    T = scenario.horizon if horizon is None else int(horizon)
    model = scenario.model
    if T != scenario.horizon and "model" in scenario.raw:
        model = _compile_model(scenario.raw["model"], T)
    return replace(
        scenario,
        horizon=T,
        ensemble=scenario.ensemble if ensemble is None else int(ensemble),
        master_seed=scenario.master_seed if master_seed is None else int(master_seed),
        checks=[{**item, **merged.get(item["name"], {})} for item in scenario.checks],
        analyses=[{**item, **merged.get(item["name"], {})} for item in scenario.analyses],
        model=model,
    )


def _execute(
    scenario: Scenario,
    out_dir=None,
    *,
    horizon: Optional[int] = None,
    ensemble: Optional[int] = None,
    master_seed: Optional[int] = None,
    overrides: Optional[dict] = None,
) -> tuple[RunSummary, RunContext]:
    clock = time.perf_counter
    t0 = clock()
    scenario = _resolve(scenario, horizon, ensemble, master_seed, overrides)
    T = scenario.horizon

    ok = True
    check_rows = []
    for item in scenario.checks:
        try:
            report = _CHECKS[item["name"]](scenario, item)
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
        # recorded where it does, and otherwise reported in that analysis's row
        outside = sorted(t for t in scenario.snapshot_times if not 0 <= t <= T)
        if outside:
            ok = False
            diagnostics["snapshot_times_outside"] = outside
        times = set(scenario.snapshot_times)
        for item in scenario.analyses:
            if item["name"] == "drift":
                with suppress(TypeError, ValueError):
                    times.update(int(t) for t in item.get("times", []))
            elif isinstance(item.get("at"), int):
                times.add(item["at"])
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
    for item in scenario.analyses:
        try:
            if ens is None:
                raise ScenarioFormatError(f"analysis {item['name']!r} needs a model")
            analysis_rows[item["name"]] = _ANALYSES[item["name"]](ctx, item)
        except Exception as exc:
            ok = False
            analysis_rows[item["name"]] = {"error": f"{type(exc).__name__}: {exc}"}
    analysed = clock()

    target_dir = Path(out_dir) if out_dir is not None else Path(scenario.outputs_dir or f"out/{scenario.scenario_id}")
    target_dir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    if trajectory is not None:
        p = target_dir / "trajectory.csv"
        write_trajectory_csv(p, trajectory)
        outputs["trajectory_csv"] = str(p)
    if ens is not None:
        p = target_dir / "ensemble.csv"
        write_ensemble_csv(p, ens)
        outputs["ensemble_csv"] = str(p)
    analysis_rows, diagnostics = cond._sanitize(analysis_rows), cond._sanitize(diagnostics)

    timing = {"checks_s": checked - t0, "engine": engine_s}
    timing["analyses_s"] = analysed - checked - sum(engine_s.values())  # the diagnostics too
    summary = RunSummary(
        scenario_id=scenario.scenario_id,
        master_seed=scenario.master_seed,
        horizon=T,
        ensemble=scenario.ensemble,
        checks=check_rows,
        analyses=analysis_rows,
        diagnostics=diagnostics,
        timing=timing,
        seed_provenance={
            "master_seed": scenario.master_seed,
            "stream": "philox(seed_sequence(master_seed, spawn_key=(run,)))",
        },
        outputs=outputs,
        ok=ok,
    )
    # The phases share clock boundaries, so they add up to total_s: write_s is
    # the rest, the CSV files, sanitising and summary.json. The summary is
    # streamed with a slot object for its timing; when the encoder reaches the
    # slot, everything before it is written, so the clock stops there and the
    # timing fills the slot, nested where ``json.dump`` nests any dict value.
    slot = object()

    def fill_timing(o):
        if o is not slot:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        total = clock() - t0
        timing["write_s"] = total - (timing["checks_s"] + sum(engine_s.values()) + timing["analyses_s"])
        timing["total_s"] = total
        return timing

    p = target_dir / "summary.json"
    with open(p, "w") as fh:
        json.dump({**summary.to_json(), "timing": slot}, fh, indent=2, allow_nan=False, default=fill_timing)
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
    return _execute(
        scenario, out_dir, horizon=horizon, ensemble=ensemble, master_seed=master_seed, overrides=overrides
    )[0]


# ---------------------------------------------------------------------------
# Catalog


def _catalog_manifest() -> dict:
    path = resources.files("consensuslab") / "catalog" / "manifest.json"
    return json.loads(path.read_text())


def catalog() -> list[str]:
    """Identifiers of the built-in reproducible cases, in manifest order."""
    return [c["id"] for c in _catalog_manifest()["cases"]]


def catalog_description(case_id: str) -> str:
    for c in _catalog_manifest()["cases"]:
        if c["id"] == case_id:
            return c["demonstrates"]
    raise KeyError(case_id)


def load_catalog_scenario(case_id: str) -> Scenario:
    if case_id not in catalog():
        raise ScenarioFormatError(f"unknown catalog id {case_id!r}; known: {catalog()}")
    path = resources.files("consensuslab") / "catalog" / f"{case_id}.json"
    return load_scenario(json.loads(path.read_text()))


# Acceptance predicates for `reproduce`: one per catalog case, each returns
# (passed, detail) given the finished summary and the run context.


def _get(summary: RunSummary, name: str) -> dict:
    return summary.analyses.get(name, {})


def _check_row(summary: RunSummary, name: str) -> dict:
    return next((row for row in summary.checks if row.get("name") == name), {})


def _check_ok(summary: RunSummary, name: str) -> bool:
    return bool(_check_row(summary, name).get("satisfied"))


def _pred_base_3agent(summary, ctx):
    env_ok = True
    traj = ctx.trajectory
    rho = 0.7
    for t in range(traj.horizon + 1):
        if traj.err_inf[t] > rho**t * traj.err_inf[0] + 1e-12:
            env_ok = False
            break
    ct = _get(summary, "consensus_time").get("time")
    ok = _check_ok(summary, "base_rates") and env_ok and ct is not None and ct <= 39
    return ok, f"envelope={env_ok}, consensus_time={ct}"


def _pred_rho_harmonic(summary, ctx):
    w = _check_row(summary, "product_to_zero").get("witness")
    if w is None:
        return False, "missing check"
    exact = abs(w["partial_product"] * (w["T"] + 1) - 1.0) < 1e-10
    return _check_ok(summary, "product_to_zero") and exact, f"partial={w['partial_product']:g}, exact={exact}"


def _pred_rho_exp(summary, ctx):
    w = _check_row(summary, "product_to_zero").get("witness")
    if w is None:
        return False, "missing check"
    limit = math.exp(-(math.pi**2) / 6.0)
    close = abs(w["partial_product"] - limit) < 1e-4
    stalled = not _check_ok(summary, "product_to_zero")
    return stalled and close, f"partial={w['partial_product']:.6f}, limit={limit:.6f}, stalled={stalled}"


def _pred_noisy_decay(summary, ctx):
    ct = _get(summary, "consensus_time").get("time")
    final_err = float(ctx.trajectory.err_inf[-1])
    ok = ct is not None and final_err < 1e-3
    return ok, f"consensus_time={ct}, final_err={final_err:.2e}"


def _pred_gaussian_dist(summary, ctx):
    d = _get(summary, "drift").get("max_distance")
    ok = d is not None and d < 0.05
    return ok, f"drift={d}"


def _pred_rademacher_dist(summary, ctx):
    d = _get(summary, "drift").get("max_distance")
    ks = _get(summary, "ks_best_fit_normal")
    stats_ok = ks and all(row["exceeds_critical"] for row in ks["per_coordinate"])
    ok = d is not None and d < 0.05 and stats_ok
    return ok, f"drift={d}, non_gaussian={stats_ok}"


def _pred_epsilon_oscillator(summary, ctx):
    drift = _get(summary, "drift").get("max_distance")
    ll1b_violated = not _check_ok(summary, "ll1b")
    ok = drift is not None and drift > 0.1 and ll1b_violated and _check_ok(summary, "ll1")
    return ok, f"drift={drift}, increment_sum_divergent={ll1b_violated}"


def _pred_cauchy(summary, ctx):
    ks = _get(summary, "ks")
    ok = bool(ks.get("below_critical"))
    return ok, f"ks={ks.get('statistic')}, critical={ks.get('critical')}"


def _pred_nonlinear_tanh(summary, ctx):
    ct = _get(summary, "consensus_time").get("time")
    traj = ctx.trajectory
    contract_ok = True
    for t in range(1, traj.horizon + 1):
        if traj.err_inf[t] > traj.rho[t] * traj.err_inf[t - 1] + 1e-12:
            contract_ok = False
            break
    ok = _check_ok(summary, "nonlinear_bounds") and ct is not None and contract_ok
    return ok, f"consensus_time={ct}, per_step_contraction={contract_ok}"


def _pred_signum(summary, ctx):
    p = _get(summary, "periodicity").get("period")
    return p == 2, f"period={p}"


def _pred_average_consensus(summary, ctx):
    pl = _get(summary, "product_limit")
    osc_final = _get(summary, "oscillation_final").get("oscillation")
    ok = (
        _check_ok(summary, "average_rates")
        and pl.get("converged")
        and pl.get("max_row_pair_l1", 1.0) < 1e-10
        and pl.get("stationarity_residual", 1.0) < 1e-8
        and osc_final is not None
        and osc_final < 1e-9
    )
    return ok, f"product_limit={pl.get('converged')}, nu_residual={pl.get('stationarity_residual')}, osc={osc_final}"


def _pred_average_clt(summary, ctx):
    r = _get(summary, "clt_check")
    ok = bool(r.get("within_tol"))
    return ok, f"max_rel_err={r.get('max_rel_err')}, rank_one_score={r.get('rank_one_score')}"


def _pred_average_line(summary, ctx):
    s = _get(summary, "rank_one").get("score")
    ok = s is not None and s < 0.05
    return ok, f"rank_one_score={s}"


_PREDICATES = {
    "base-3agent": _pred_base_3agent,
    "rho-harmonic": _pred_rho_harmonic,
    "rho-exp-nonzero": _pred_rho_exp,
    "noisy-decay": _pred_noisy_decay,
    "gaussian-dist": _pred_gaussian_dist,
    "rademacher-dist": _pred_rademacher_dist,
    "epsilon-oscillator": _pred_epsilon_oscillator,
    "cauchy-invariant": _pred_cauchy,
    "nonlinear-tanh": _pred_nonlinear_tanh,
    "signum-periodic": _pred_signum,
    "average-consensus": _pred_average_consensus,
    "average-clt": _pred_average_clt,
    "average-line": _pred_average_line,
}


def reproduce(case_id: str, out_dir=None) -> tuple[RunSummary, bool, str]:
    """Run a catalog case and evaluate its acceptance predicate."""
    scenario = load_catalog_scenario(case_id)
    summary, ctx = _execute(scenario, out_dir=out_dir)
    passed, detail = _PREDICATES[case_id](summary, ctx)
    return summary, bool(passed), detail
