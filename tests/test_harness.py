import contextlib
import copy
import csv
import json
import math
import os
import random
import warnings
from importlib import resources

import numpy as np
import pytest

import consensuslab.cli as cli
from consensuslab import (
    ConsensusLabError,
    InconsistentDeclarationError,
    ModelSpec,
    Table,
    contraction_factor,
    ScenarioFormatError,
    catalog,
    load_catalog_scenario,
    linear_learning,
    load_scenario,
    model_rho_sequence,
    reproduce,
    run_scenario,
    sample_noise_block,
    scaled_tanh_learning,
    simulate,
    StructureError,
    validate_summary,
)
from consensuslab import dynamics, harness
from consensuslab.dynamics import EnsembleSample, Trajectory
from consensuslab.harness import catalog_description, write_ensemble_csv, write_trajectory_csv


MINIMAL = {
    "schema_version": 1,
    "id": "mini",
    "model": {
        "family": "base",
        "n": 2,
        "A": {"kind": "constant", "matrix": [[0.6, 0.4], [0.3, 0.7]]},
        "E": {"kind": "constant", "eps": [0.4, 0.2]},
        "sigma_bar": 1.0,
        "noise": {"kind": "zero"},
        "x0": [0.0, 0.0],
    },
}


class TestLoadScenario:
    def test_minimal_fills_defaults(self):
        s = load_scenario(dict(MINIMAL))
        assert s.horizon == 100
        assert s.ensemble == 1
        assert s.master_seed == 0
        assert s.checks == [] and s.analyses == []

    def test_negative_ensemble_rejected_with_pointer(self):
        doc = dict(MINIMAL, ensemble=-3)
        with pytest.raises(ScenarioFormatError) as e:
            load_scenario(doc)
        assert e.value.pointer == "/ensemble"

    def test_wrong_schema_version(self):
        with pytest.raises(ScenarioFormatError):
            load_scenario(dict(MINIMAL, schema_version=2))

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioFormatError):
            load_scenario(dict(MINIMAL, horizons=5))

    def test_unknown_check_lists_known(self):
        doc = dict(MINIMAL, checks=[{"name": "no_such_check"}])
        with pytest.raises(ScenarioFormatError, match="base_rates"):
            load_scenario(doc)

    def test_unknown_analysis_lists_known(self):
        doc = dict(MINIMAL, analyses=[{"name": "no_such_analysis"}])
        with pytest.raises(ScenarioFormatError, match="consensus_time"):
            load_scenario(doc)

    def test_unknown_rate_schedule_kind(self):
        model = dict(MINIMAL["model"], E={"kind": "random_walk"})
        with pytest.raises(ScenarioFormatError, match="epsilon_oscillator"):
            load_scenario(dict(MINIMAL, model=model))

    def test_unknown_noise_kind_rejected_by_schema(self):
        model = dict(MINIMAL["model"], noise={"kind": "pink"})
        with pytest.raises(ScenarioFormatError):
            load_scenario(dict(MINIMAL, model=model))

    def test_invalid_model_flagged(self):
        model = dict(MINIMAL["model"])
        model.pop("sigma_bar")
        with pytest.raises(ScenarioFormatError, match="sigma_bar"):
            load_scenario(dict(MINIMAL, model=model))

    def test_a_covariance_that_is_not_semidefinite_has_the_noise_pointer(self):
        noise = {"kind": "gaussian", "mu": [0.0, 0.0], "sigma": [[1, 2], [2, 1]]}
        model = dict(MINIMAL["model"], family="noisy_feedback", noise=noise)
        with pytest.raises(ScenarioFormatError, match="positive semidefinite") as e:
            load_scenario(dict(MINIMAL, model=model))
        assert e.value.pointer == "/model/noise"

    def test_a_negative_learning_scale_has_the_learning_fn_pointer(self):
        model = {k: v for k, v in MINIMAL["model"].items() if k != "E"}
        model.update(family="nonlinear", learning_fn={"kind": "scaled_tanh", "scale": -1})
        with pytest.raises(ScenarioFormatError, match="scale and bound must be positive") as e:
            load_scenario(dict(MINIMAL, model=model))
        assert e.value.pointer == "/model/learning_fn"

    def test_loads_from_file(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(MINIMAL))
        assert load_scenario(p).scenario_id == "mini"

    def test_missing_file(self):
        with pytest.raises(ScenarioFormatError, match="not found"):
            load_scenario("does/not/exist.json")

    def test_loads_json_text_of_any_length(self):
        doc = json.loads((resources.files("consensuslab") / "catalog" / "noisy-decay.json").read_text())
        text = json.dumps(doc)
        assert len(text) > 255  # longer than a file name may be
        assert load_scenario(text).raw == doc

    def test_every_schema_kind_compiles_in_some_slot(self):
        defs = harness._SCENARIO_SCHEMA["definitions"]
        one = {"family": "base", "n": 1, "A": {"kind": "constant", "matrix": [[1.0]]},
               "E": {"kind": "constant", "eps": [0.5]}, "sigma_bar": 1.0, "x0": [0.0]}
        fields = {
            "schedule": {"matrix": [[1.0]], "eps": [0.5], "matrices": [[[1.0]]], "values": [[0.5]]},
            "noise": {"rate": 0.5, "mu": [0.0], "sigma": [[1.0]], "scale": 1.0, "table": [[0.1]]},
            "learning_fn": {"slope": 0.5, "scale": 0.5, "bound": 3.0, "step": 0.1},
            "time_scale": {"value": 1.0, "rate": 0.5},
        }

        def slots(definition, kind):
            doc = dict(fields[definition], kind=kind)
            if definition == "schedule":
                yield {**one, "A": doc}
                yield {**one, "E": doc}
            elif definition == "noise":
                yield {**one, "family": "noisy_feedback", "noise": doc}
            elif definition == "learning_fn":
                yield {**one, "family": "nonlinear", "learning_fn": doc, "E": None}
            else:
                yield {**one, "family": "noisy_feedback", "noise": {"kind": "rademacher", "time_scale": doc}}

        for definition in fields:
            for kind in defs[definition]["properties"]["kind"]["enum"]:
                loaded = []
                for model in slots(definition, kind):
                    model = {k: v for k, v in model.items() if v is not None}
                    try:
                        loaded.append(load_scenario(dict(MINIMAL, model=model)).model)
                    except ScenarioFormatError:
                        pass
                assert loaded, f"{definition} kind {kind!r} compiles in no slot"


def _load_error(**model_fields) -> ScenarioFormatError:
    with pytest.raises(ScenarioFormatError) as e:
        load_scenario(dict(MINIMAL, model=dict(MINIMAL["model"], **model_fields)))
    return e.value


class TestCompileBoundary:
    """The model document goes to ``ModelSpec``/``NoiseSpec`` as written; every compile error is a ``ScenarioFormatError``."""

    MUTATIONS = ("", "x", {}, [], [[1.0], [1.0, 2.0]], math.nan, -1, 1e308, 0, 0.5, [0.5], None, True)

    @staticmethod
    def _paths(node, prefix=()):
        """Every dict key below ``node``, and the first entry of every list."""
        if isinstance(node, dict):
            items = node.items()
        elif isinstance(node, list) and node:
            items = [(0, node[0])]
        else:
            return
        for key, child in items:
            yield prefix + (key,)
            yield from TestCompileBoundary._paths(child, prefix + (key,))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_mutated_catalog_models_load_or_raise_scenario_errors(self, seed):
        docs = [s.raw for s in map(load_catalog_scenario, catalog()) if s.model is not None]
        rng = random.Random(seed)
        outcomes = {"loaded": 0, "rejected": 0}
        for _ in range(1000):
            doc = copy.deepcopy(rng.choice(docs))
            for path in rng.sample(list(self._paths(doc["model"], ("model",))), rng.randint(1, 2)):
                node = doc
                with contextlib.suppress(LookupError, TypeError):  # the first mutation may have replaced a parent
                    for key in path[:-1]:
                        node = node[key]
                    node[path[-1]] = copy.deepcopy(rng.choice(self.MUTATIONS))
            try:
                load_scenario(doc)
                outcomes["loaded"] += 1
            except ScenarioFormatError:
                outcomes["rejected"] += 1
        assert outcomes["loaded"] and outcomes["rejected"] > 500

    def test_a_learning_fn_on_noisy_feedback_is_an_error(self):
        e = _load_error(family="noisy_feedback", learning_fn={"kind": "linear", "slope": 0.5})
        assert e.pointer == "/model" and "nonlinear" in str(e)

    def test_a_rate_schedule_on_nonlinear_is_an_error(self):
        e = _load_error(family="nonlinear", learning_fn={"kind": "linear", "slope": 0.5})
        assert e.pointer == "/model" and "rate schedules" in str(e)

    def test_a_time_scale_on_custom_noise_scales_its_rows_by_one_over_t(self):
        noise = {"kind": "custom", "table": [[1.0, 1.0]] * 4, "time_scale": {"kind": "inverse_t"}}
        model = dict(MINIMAL["model"], family="noisy_feedback", noise=noise)
        spec = load_scenario(dict(MINIMAL, model=model)).model.noise
        t = np.arange(1.0, 5.0)[:, None]
        assert np.array_equal(sample_noise_block(spec, 4, None), np.ones((4, 2)) / t)

    @pytest.mark.parametrize("fields, pointer, message", [
        ({"A": {"kind": "constant", "matrix": [[0.6, "x"], [0.3, 0.7]]}}, "/model/A", "invalid A"),
        ({"E": {"kind": "constant", "eps": [[0.4], [0.2, 0.1]]}}, "/model/E", "invalid E"),
        ({"family": "noisy_feedback", "noise": {"kind": "decaying"}}, "/model/noise", "finite rate"),
        ({"noise": {"kind": "zero", "time_scale": {"kind": "geometric"}}}, "/model/noise", "missing field 'rate'"),
    ], ids=["matrix-entry", "ragged-eps", "decaying-without-rate", "geometric-without-rate"])
    def test_a_bad_part_points_at_it(self, fields, pointer, message):
        e = _load_error(**fields)
        assert e.pointer == pointer and message in str(e)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("part", ["A", "E", "mu", "sigma"])
    def test_a_non_finite_entry_is_refused_at_its_part(self, part, value):
        gaussian = {"kind": "gaussian", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}
        model = copy.deepcopy(dict(MINIMAL["model"], family="noisy_feedback", noise=gaussian))
        entries = {"A": model["A"]["matrix"][0], "E": model["E"]["eps"],
                   "mu": model["noise"]["mu"], "sigma": model["noise"]["sigma"][1]}[part]
        entries[1] = value
        e = _load_error(**model)
        assert e.pointer == ("/model/noise" if part in ("mu", "sigma") else f"/model/{part}")
        assert "finite" in str(e)

    @pytest.mark.parametrize("row", [[0.5, 0.0, 0.0], [1.5, -0.25, -0.25]], ids=["row-sum", "negative"])
    def test_a_weights_matrix_that_is_not_row_stochastic_is_refused_at_load(self, row):
        doc = copy.deepcopy(load_catalog_scenario("base-3agent").raw)
        doc["model"]["A"]["matrix"][0] = row
        with pytest.raises(ScenarioFormatError, match="invalid A") as e:
            load_scenario(doc)
        assert e.value.pointer == "/model/A"
        matrices = [[[0.6, 0.4], [0.3, 0.7]], [[0.5, 0.0], [0.3, 0.7]]]  # the second entry's first row
        assert _load_error(A={"kind": "table", "matrices": matrices}).pointer == "/model/A"

    @pytest.mark.parametrize("path, value, pointer", [
        (("E", "eps", 0), True, "/model/E/eps/0"),
        (("A", "matrix", 0), [True, False, False], "/model/A/matrix/0/0"),
        (("E",), {"kind": "constant", "value": [0.3, False, 0.7]}, "/model/E/value/1"),
    ], ids=["eps", "matrix-row", "rate-value"])
    def test_a_boolean_in_the_model_is_refused_at_its_pointer(self, path, value, pointer):
        # numpy reads true as 1.0 and false as 0.0, so each of these once loaded and ran
        doc = copy.deepcopy(load_catalog_scenario("base-3agent").raw)
        node = doc["model"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ScenarioFormatError, match="^(True|False) is not a number") as e:
            load_scenario(doc)
        assert e.value.pointer == pointer

    def test_a_geometric_time_scale_that_overflows_is_refused(self, tmp_path):
        # 2.0**t leaves the float range at t = 1024, inside a horizon of 1100
        noise = {"kind": "gaussian", "time_scale": {"kind": "geometric", "rate": 2.0}}
        model = dict(MINIMAL["model"], family="pure_noise_feedback", noise=noise, sigma_bar=None)
        model = {k: v for k, v in model.items() if v is not None}
        doc = dict(MINIMAL, model=model, horizon=1100, ensemble=2)
        with pytest.raises(ScenarioFormatError, match="overflows at t=1024") as e:
            load_scenario(doc)
        assert e.value.pointer == "/model/noise"
        scenario = load_scenario(dict(doc, horizon=1023))  # 2.0**1023 is finite
        with pytest.raises(ScenarioFormatError, match="overflows at t=1024"):
            run_scenario(scenario, out_dir=tmp_path, horizon=1100)


class TestRuntimeFuzz:
    """Mutated catalog documents, small enough to run, raise a library error or end in a valid summary."""

    VALUES = TestCompileBoundary.MUTATIONS + (math.inf, 2.5, 3, 7.0, 60, 61, [3, 2.5], [10, 20], 1e-3, "model")
    PARAMS = ("at", "times", "T", "tol", "level", "max_period", "rho", "grid", "dist", "coordinate")

    def test_mutated_documents_run_or_raise_library_errors(self, tmp_path):
        docs = [s.raw for s in map(load_catalog_scenario, catalog())]
        rng = random.Random(401)
        outcomes = {"raised": 0, "ok": 0, "error_rows": 0}
        for k in range(1000):
            doc = copy.deepcopy(rng.choice(docs))
            items = doc.get("checks", []) + doc.get("analyses", [])
            for _ in range(rng.randint(1, 3)):
                if items and rng.random() < 0.5:  # a parameter, old or new, of a check or analysis
                    rng.choice(items)[rng.choice(self.PARAMS)] = copy.deepcopy(rng.choice(self.VALUES))
                    continue
                path = rng.choice(list(TestCompileBoundary._paths(doc)))
                if path[0] not in ("schema_version", "id", "horizon", "ensemble"):
                    node = doc
                    with contextlib.suppress(LookupError, TypeError):  # an earlier mutation may have replaced a parent
                        for key in path[:-1]:
                            node = node[key]
                        node[path[-1]] = copy.deepcopy(rng.choice(self.VALUES))
            doc.update(horizon=rng.randint(0, 60), ensemble=rng.randint(1, 40))
            try:
                with np.errstate(all="ignore"):
                    summary = run_scenario(load_scenario(doc), out_dir=tmp_path / str(k))
            except ConsensusLabError:
                outcomes["raised"] += 1
                continue
            validate_summary(json.loads((tmp_path / str(k) / "summary.json").read_text()))
            if any("error" in row for row in summary.checks + list(summary.analyses.values())):
                assert not summary.ok, doc
                outcomes["error_rows"] += 1
            outcomes["ok"] += summary.ok
        assert all(outcomes.values()), outcomes

    def test_rates_whose_averaging_map_loses_its_row_sums_raise_a_library_error(self, tmp_path):
        # B = A + E/n - diag(E) at a rate of 1e308 cancels to rows summing to 0 and 1
        doc = copy.deepcopy(load_catalog_scenario("average-line").raw)
        doc["model"]["E"]["eps"] = [1e308, 0.2]
        with pytest.raises(StructureError, match="row sums must agree"):
            run_scenario(load_scenario(dict(doc, horizon=10, ensemble=4)), out_dir=tmp_path)


class TestSchemaMaxima:
    """Sizes past the schema's maxima are refused at load, before anything is allocated for them."""

    @pytest.mark.parametrize("field, largest", [("horizon", 10**7), ("ensemble", 10**6)])
    def test_horizon_and_ensemble(self, field, largest):
        assert getattr(load_scenario(dict(MINIMAL, **{field: largest})), field) == largest
        with pytest.raises(ScenarioFormatError, match="maximum") as e:
            load_scenario(dict(MINIMAL, **{field: largest + 1}))
        assert e.value.pointer == f"/{field}"

    def test_master_seed_is_at_most_64_bits(self, tmp_path):
        # summary.json is written by orjson, which takes integers of at most 64 bits
        largest = 2**64 - 1
        doc = dict(load_catalog_scenario("gaussian-dist").raw, horizon=5, ensemble=3, master_seed=largest,
                   snapshot_times=[], analyses=[{"name": "moments"}])
        summary = run_scenario(load_scenario(doc), out_dir=tmp_path)
        assert summary.ok and summary.master_seed == largest
        written = json.loads((tmp_path / "summary.json").read_text())
        assert written["master_seed"] == written["seed_provenance"]["master_seed"] == largest
        with pytest.raises(ScenarioFormatError, match="maximum") as e:
            load_scenario(dict(doc, master_seed=largest + 1))
        assert e.value.pointer == "/master_seed"

    @pytest.mark.parametrize("seed, message", [(2**64, "greater than the maximum"), (-1, "less than the minimum")])
    def test_a_master_seed_override_past_the_schema_is_refused(self, seed, message, tmp_path, capsys):
        scenario = load_catalog_scenario("base-3agent")
        with pytest.raises(ScenarioFormatError, match=message) as e:
            run_scenario(scenario, out_dir=tmp_path / "a", master_seed=seed)
        assert e.value.pointer == "/master_seed"
        # base-3agent draws no noise, so only the override's check refuses it
        assert cli.main(["run", "base-3agent", "--seed", str(seed), "--out-dir", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert message in err and err.rstrip().endswith("(at /master_seed)")
        assert not any(tmp_path.iterdir())

    def test_agent_count(self):
        with pytest.raises(ScenarioFormatError, match="maximum") as e:
            load_scenario(dict(MINIMAL, model=dict(MINIMAL["model"], n=10**4 + 1)))
        assert e.value.pointer == "/model/n"

    def test_a_check_horizon_of_a_billion_is_refused(self):
        # model_rho_sequence would ask for 7.45 GiB of contraction figures
        doc = copy.deepcopy(load_catalog_scenario("rho-harmonic").raw)
        assert doc["checks"][0]["T"] == 10**5
        doc["checks"][0]["T"] = 10**7
        load_scenario(doc)
        doc["checks"][0]["T"] = 10**9
        with pytest.raises(ScenarioFormatError, match="maximum") as e:
            load_scenario(doc)
        assert e.value.pointer == "/checks/0/T"

    @pytest.mark.parametrize("argv, pointer, message", [
        (["run", "base-3agent", "--horizon", "100000000"], "/horizon", "greater than the maximum of 10000000"),
        (["run", "base-3agent", "--ensemble", "10000000"], "/ensemble", "greater than the maximum of 1000000"),
        (["check", "base-3agent", "--horizon", "-1"], "/horizon", "less than the minimum of 0"),
        (["run", "base-3agent", "--ensemble", "0"], "/ensemble", "less than the minimum of 1"),
        (["run", "rho-harmonic", "--tol", "product_to_zero.T=1000000000"], "/checks/0/T",
         "greater than the maximum of 10000000"),
        (["run", "epsilon-oscillator", "--tol", "ll1b.T=1e9"], "/checks/1/T", "greater than the maximum"),
    ])
    def test_an_override_past_the_schema_is_refused_before_any_work(self, argv, pointer, message, tmp_path,
                                                                     capsys, monkeypatch):
        reached = []
        for name in ("simulate_ensemble", "model_rho_sequence", "rho_harmonic"):
            monkeypatch.setattr(harness, name, lambda *args, name=name, **kwargs: reached.append(name))
        compile_model = harness._compile_model
        monkeypatch.setattr(harness, "_compile_model", lambda *args: reached.append("compile") or compile_model(*args))
        assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: schema violation: ") and message in err
        assert err.rstrip().endswith(f"(at {pointer})")
        # the model was compiled once, at load, and not again for the overridden horizon
        assert reached == ["compile"] and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("name", ["horizon", "ensemble", "master_seed"])
    def test_a_fractional_override_is_refused(self, name, tmp_path):
        scenario = load_catalog_scenario("signum-periodic")
        with pytest.raises(ScenarioFormatError, match="not a whole number") as e:
            run_scenario(scenario, out_dir=tmp_path, **{name: 5.5})
        assert e.value.pointer == f"/{name}" and not any(tmp_path.iterdir())
        resolved = harness._resolve(scenario, **{name: 5.0})
        assert getattr(resolved, name) == 5 and type(getattr(resolved, name)) is int

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("name", ["horizon", "ensemble", "master_seed"])
    def test_a_boolean_override_is_refused(self, name, value, tmp_path):
        # True == 1 and False == 0, so only the type tells a flag from a count
        with pytest.raises(ScenarioFormatError, match=f"{value} is not a whole number") as e:
            run_scenario(load_catalog_scenario("base-3agent"), out_dir=tmp_path, **{name: value})
        assert e.value.pointer == f"/{name}" and not any(tmp_path.iterdir())

    def test_overrides_at_the_maxima_resolve(self, monkeypatch):
        scenario = load_catalog_scenario("base-3agent")
        resolved = harness._resolve(scenario, horizon=10**7, ensemble=10**6, overrides={"ll1.T": 10**7})
        assert (resolved.horizon, resolved.ensemble, resolved.checks[1]["T"]) == (10**7, 10**6, 10**7)
        # without an override nothing is validated again
        monkeypatch.setattr(harness, "_validate", lambda *args: pytest.fail("validated without an override"))
        assert harness._resolve(scenario).horizon == scenario.horizon


class TestCatalog:
    def test_required_cases_present(self):
        ids = catalog()
        required = {
            "base-3agent", "rho-harmonic", "rho-exp-nonzero", "noisy-decay",
            "gaussian-dist", "rademacher-dist", "epsilon-oscillator",
            "cauchy-invariant", "nonlinear-tanh", "signum-periodic",
            "average-consensus", "average-clt", "average-line",
        }
        assert required <= set(ids)
        assert len(ids) == len(set(ids))

    def test_every_case_loads_and_validates(self):
        for case_id in catalog():
            s = load_catalog_scenario(case_id)
            assert s.scenario_id == case_id
            assert catalog_description(case_id)

    def test_clt_case_matches_published_scale(self):
        s = load_catalog_scenario("average-clt")
        assert s.horizon == 2000
        assert s.ensemble == 3000

    def test_unknown_id(self):
        with pytest.raises(ScenarioFormatError, match="known"):
            load_catalog_scenario("no-such-case")


class TestModelRho:
    def test_constant_base_model(self):
        s = load_catalog_scenario("base-3agent")
        rho = model_rho_sequence(s.model, 5)
        assert np.allclose(rho, 0.7)

    def test_average_model_uses_mixing_coefficient(self):
        s = load_catalog_scenario("average-consensus")
        rho = model_rho_sequence(s.model, 3)
        assert np.allclose(rho, 0.0)  # this averaging map is instantly rank one

    @pytest.mark.parametrize("make_spec", [
        pytest.param(lambda: load_catalog_scenario("base-3agent").model, id="base"),
        pytest.param(lambda: load_catalog_scenario("noisy-decay").model, id="noisy_feedback"),
        pytest.param(lambda: load_catalog_scenario("cauchy-invariant").model, id="pure_noise_feedback"),
        pytest.param(lambda: ModelSpec.nonlinear(
            [[0.6, 0.4, 0.0], [0.2, 0.5, 0.3], [0.0, 0.3, 0.7]],
            [linear_learning(0.3), scaled_tanh_learning(0.4), linear_learning(0.5)],
            [1.0, -1.0, 0.5], sigma_bar=0.0), id="nonlinear-per-agent"),
        pytest.param(lambda: load_catalog_scenario("average-line").model, id="average"),
        pytest.param(lambda: load_catalog_scenario("epsilon-oscillator").model, id="table-E"),
        pytest.param(lambda: ModelSpec.base(
            Table([[[d, 1.0 - d], [0.5, 0.5]] for d in np.linspace(0.9, 0.3, 31)]),
            [0.4, 0.2], 1.0, [0.0, 2.0]), id="table-A"),
    ])
    def test_model_sequence_matches_engine(self, make_spec):
        spec = make_spec()
        assert np.array_equal(model_rho_sequence(spec, 30), simulate(spec, 30, seed=0).rho[1:])

    def test_constant_schedules_are_evaluated_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dynamics, "contraction_factor",
                            lambda *args: calls.append(args) or contraction_factor(*args))
        rho = model_rho_sequence(load_catalog_scenario("noisy-decay").model, 2000)
        assert len(calls) == 1
        assert rho.shape == (2000,) and np.all(rho == rho[0])

    def test_undeclared_learning_function_raises(self):
        spec = load_catalog_scenario("signum-periodic").model
        with pytest.raises(InconsistentDeclarationError):
            model_rho_sequence(spec, 5)
        assert np.isnan(simulate(spec, 5, seed=0).rho).all()

    def test_average_scalar_rate_table(self, tmp_path):
        model = dict(MINIMAL["model"], family="average", E={"kind": "table", "values": [0.3] * 4})
        del model["sigma_bar"]
        doc = dict(MINIMAL, horizon=3, model=model, checks=[{"name": "product_to_zero"}])
        summary = run_scenario(load_scenario(doc), out_dir=tmp_path)
        assert "error" not in summary.checks[0]
        assert summary.checks[0]["witness"]["T"] == 3


class TestRunScenario:
    def test_artifacts_and_headers(self, tmp_path):
        doc = dict(MINIMAL, horizon=20, analyses=[{"name": "consensus_time", "tol": 1e-6}])
        scenario = load_scenario(doc)
        summary = run_scenario(scenario, out_dir=tmp_path)
        traj = simulate(scenario.model, 20, seed=0)
        assert summary.ok
        assert summary.diagnostics == {
            "engine": {"runs": 1, "steps": 20, "uniforms_drawn": 0, "philox_calls": 0,
                       "transform_parts": 0, "chunk_steps": 20, "noise_buffer_bytes_peak": 0},
            "nonfinite_runs": 0,
            "first_nonfinite_step": None,
            "rho_max": traj.rho[1],
            "err_final": traj.err_inf[-1],
            "osc_final": traj.osc[-1],
        }
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "component_0", "component_1", "err_inf", "osc"]
        assert len(rows) == 22
        with open(tmp_path / "ensemble.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run", "component_0", "component_1"]
        assert len(rows) == 2

    def test_engine_diagnostics_count_the_noise(self, tmp_path):
        model = dict(MINIMAL["model"], family="pure_noise_feedback", noise={"kind": "rademacher"})
        del model["sigma_bar"]
        doc = dict(MINIMAL, model=model, horizon=30, ensemble=5)
        summary = run_scenario(load_scenario(doc), out_dir=tmp_path)
        # one 30-step chunk, one Philox call a step, filled in 8 parts of whole steps, and a
        # stage of one step, both 8 runs wide (5 runs and 3 pad runs, which draw their noise too)
        assert summary.diagnostics["engine"] == {
            "runs": 5, "steps": 30, "uniforms_drawn": 30 * 2 * 8, "philox_calls": 30,
            "transform_parts": 8, "chunk_steps": 30, "noise_buffer_bytes_peak": 8 * 30 * 2 * 8 + 8 * 2 * 8,
        }
        with open(tmp_path / "summary.json") as fh:
            assert json.load(fh)["diagnostics"]["engine"] == summary.diagnostics["engine"]

    def test_csv_floats_round_trip(self, tmp_path):
        doc = dict(MINIMAL, horizon=15)
        s = load_scenario(doc)
        run_scenario(s, out_dir=tmp_path)
        from consensuslab import simulate

        traj = simulate(s.model, 15, seed=0)
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for t, row in enumerate(rows):
            got = np.array([float(v) for v in row[1:3]])
            assert np.array_equal(got, traj.states[t])

    @staticmethod
    def _repr_reference(path, header, rows, first=0):
        # the per-row csv.writer that formats each value with repr
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for i, values in enumerate(rows, first):
                w.writerow([i] + [repr(float(v)) for v in values])

    @pytest.mark.parametrize("rows, n", [
        (5000, 3),  # many slices, the last one partial
        (1000, 1),  # one component
        (3, harness._CSV_SLICE_VALUES + 5),  # one row is wider than a slice
    ])
    def test_csv_bytes_equal_the_per_value_repr_writer(self, tmp_path, rows, n):
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5, 1e-4]
        for width in (n + 1, n + 3):  # ensemble and trajectory rows
            step = max(1, harness._CSV_SLICE_VALUES // width)
            assert rows > step and (step == 1 or rows % step)  # several slices, the last one partial
        pts = np.random.default_rng(3).normal(size=(rows, n)) * 10.0 ** np.resize(np.arange(-3, 3, 2), n)
        pts.flat[: len(special)] = special
        pts.flat[-len(special):] = special
        err, osc = pts[:, 0] * 2.0, pts[::-1, -1].copy()
        traj = Trajectory(states=pts, err_inf=err, osc=osc, rho=np.full(rows, np.nan), sigma_bar=None)
        ens = EnsembleSample(terminal_states=pts, t_final=rows - 1, master_seed=0, run0=traj, engine={})

        comps = [f"component_{j}" for j in range(n)]
        write_ensemble_csv(tmp_path / "e.csv", ens)
        self._repr_reference(tmp_path / "e_ref.csv", ["run"] + comps, pts)
        write_trajectory_csv(tmp_path / "t.csv", traj)
        self._repr_reference(tmp_path / "t_ref.csv", ["t"] + comps + ["err_inf", "osc"],
                             [list(x) + [e, o] for x, e, o in zip(pts, err, osc)])
        for name in ("e", "t"):
            got = (tmp_path / f"{name}.csv").read_bytes()
            assert got == (tmp_path / f"{name}_ref.csv").read_bytes()
            assert got.count(b"\n") == rows + 1

    def test_terminal_only_trajectory_csv_is_the_row_at_the_horizon(self, tmp_path):
        s = load_catalog_scenario("base-3agent")
        full = simulate(s.model, 200, seed=0)
        lean = simulate(s.model, 200, seed=0, keep_states=False)
        write_trajectory_csv(tmp_path / "t.csv", lean)
        header = ["t"] + [f"component_{j}" for j in range(3)] + ["err_inf", "osc"]
        last = [list(full.states[-1]) + [full.err_inf[-1], full.osc[-1]]]
        self._repr_reference(tmp_path / "t_ref.csv", header, last, first=200)
        got = (tmp_path / "t.csv").read_bytes()
        assert got == (tmp_path / "t_ref.csv").read_bytes()
        row = got.decode().splitlines()[1].split(",")
        assert row[0] == "200" and float(row[-2]) < 1e-12  # not the initial error of 1.0

    def _written(self, tmp_path, pts, err, osc):
        """The ensemble and trajectory CSVs of ``pts`` and the run-0 columns, each with its repr reference."""
        rows, n = pts.shape
        traj = Trajectory(states=pts, err_inf=err, osc=osc, rho=np.full(rows, np.nan), sigma_bar=None)
        write_ensemble_csv(tmp_path / "e.csv", EnsembleSample(
            terminal_states=pts, t_final=rows - 1, master_seed=0, run0=traj, engine={}))
        write_trajectory_csv(tmp_path / "t.csv", traj)
        comps = [f"component_{j}" for j in range(n)]
        self._repr_reference(tmp_path / "e_ref.csv", ["run"] + comps, pts)
        self._repr_reference(tmp_path / "t_ref.csv", ["t"] + comps + ["err_inf", "osc"],
                             [list(x) + [e, o] for x, e, o in zip(pts, err, osc)])
        return [((tmp_path / f"{name}.csv").read_bytes(), (tmp_path / f"{name}_ref.csv").read_bytes())
                for name in ("e", "t")]

    @pytest.mark.parametrize("width", [1, 2, 3, 102])
    def test_csv_bytes_of_random_bit_patterns_equal_the_repr_writer(self, tmp_path, width):
        rng = np.random.default_rng(width)
        edges = np.array([np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), np.nextafter(1e16, 0.0),
                          np.nextafter(1e16, np.inf), 1e-4, 1e16, 0.0, -0.0, 5e-324, np.nan, np.inf, -np.inf])
        edges = np.concatenate([edges, -edges])
        bits = rng.integers(0, 2**64, size=10**5, dtype=np.uint64, endpoint=False).view(np.float64)
        # magnitudes log-uniform over 1e-5 .. 1e17, so many rows hold only values orjson writes
        logu = rng.choice([-1.0, 1.0], size=10**4) * 10.0 ** rng.uniform(-5.0, 17.0, size=10**4)
        fast = np.resize(logu[(np.abs(logu) >= 1e-4) & (np.abs(logu) < 1e16)], (len(edges), width))
        first_col, last_col = fast.copy(), fast.copy()
        first_col[:, 0], last_col[:, -1] = edges, edges[::-1]  # each edge in an otherwise orjson row
        pts = np.concatenate([bits[: len(bits) // width * width].reshape(-1, width),
                              logu[: len(logu) // width * width].reshape(-1, width)])
        pts = np.concatenate([first_col, rng.permutation(pts), last_col])
        nan_err = np.full(len(pts), np.nan)  # the err_inf of a family with no target
        for got, want in self._written(tmp_path, pts, nan_err, rng.permutation(pts[:, 0])):
            assert got == want

    def test_csv_rows_take_orjson_unless_it_spells_a_value_differently(self, tmp_path, monkeypatch):
        formatted = []
        dumps = harness.orjson.dumps

        def spy(block, option):
            formatted.append(len(block))
            return dumps(block, option=option)

        monkeypatch.setattr(harness.orjson, "dumps", spy)
        rng = np.random.default_rng(5)
        # wide_agents' run 0: no target, so err_inf is NaN at every step; every row goes to orjson
        pts = rng.uniform(0.01, 3.0, size=(300, 3)) * rng.choice([-1.0, 1.0], size=(300, 3))
        for got, want in self._written(tmp_path, pts, np.full(300, np.nan), np.abs(pts[:, 0])):
            assert got == want
        assert sum(formatted) == 2 * 300
        # rows holding +-inf, a nonzero |x| < 1e-4 or |x| >= 1e16 go through the template, in order
        formatted.clear()
        pts = rng.normal(size=(10, 2))
        pts[2, 0], pts[5, 1], pts[7, 0], pts[8, 1] = np.inf, -np.inf, 3e-300, -2e16
        pts[1, 1], pts[3, 0] = np.nan, 0.0  # written by orjson
        write_ensemble_csv(tmp_path / "e.csv", EnsembleSample(
            terminal_states=pts, t_final=9, master_seed=0, run0=None, engine={}))
        self._repr_reference(tmp_path / "e_ref.csv", ["run", "component_0", "component_1"], pts)
        assert (tmp_path / "e.csv").read_bytes() == (tmp_path / "e_ref.csv").read_bytes()
        assert formatted == [2, 2, 1, 1]  # rows 0-1, 3-4, 6 and 9

    def test_csv_guard_refuses_an_orjson_that_spells_a_value_differently(self, tmp_path, monkeypatch):
        dumps = harness.orjson.dumps
        monkeypatch.setattr(harness.orjson, "dumps",
                            lambda block, option: dumps(block, option=option).replace(b"0.25", b"0.26", 1))
        pts = np.array([[0.5, 0.25], [1.5, 2.5]])
        with pytest.raises(AssertionError, match="0.25"):
            write_ensemble_csv(tmp_path / "e.csv", EnsembleSample(
                terminal_states=pts, t_final=1, master_seed=0, run0=None, engine={}))

    def test_rerun_is_byte_identical(self, tmp_path):
        s = load_catalog_scenario("signum-periodic")
        run_scenario(s, out_dir=tmp_path / "a")
        run_scenario(s, out_dir=tmp_path / "b")
        for name in ("trajectory.csv", "ensemble.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("case_id", [None, *catalog()])
    def test_summary_validates_against_schema(self, case_id, tmp_path):
        def typed(x):  # each leaf with its type, so 1 == 1.0 and True == 1 do not pass
            if isinstance(x, dict):
                return {k: typed(v) for k, v in x.items()}
            return [typed(v) for v in x] if isinstance(x, list) else (type(x), x)

        scenario = load_scenario(dict(MINIMAL, horizon=10)) if case_id is None else load_catalog_scenario(case_id)
        summary = run_scenario(scenario, out_dir=tmp_path)
        doc = json.loads((tmp_path / "summary.json").read_text())
        validate_summary(doc)
        expected = summary.to_json()
        expected["outputs"] = {k: v for k, v in expected["outputs"].items() if k != "summary_json"}
        assert typed(doc) == typed(expected)
        # every numeric field in the document is finite (orjson writes no NaN or Infinity)
        json.dumps(doc, allow_nan=False)

    def test_partial_failures_recorded(self, tmp_path):
        doc = dict(
            MINIMAL,
            horizon=40,
            checks=[{"name": "nonlinear_bounds"}],  # wrong family: errors, run continues
            analyses=[{"name": "consensus_time", "tol": 1e-2}],
        )
        summary = run_scenario(load_scenario(doc), out_dir=tmp_path)
        assert not summary.ok
        assert "error" in summary.checks[0]
        assert summary.analyses["consensus_time"]["time"] is not None

    def test_overrides(self, tmp_path):
        doc = dict(MINIMAL, horizon=120, analyses=[{"name": "consensus_time", "tol": 1e-6}])
        strict = run_scenario(load_scenario(doc), out_dir=tmp_path / "x",
                              overrides={"consensus_time.tol": 1e-8})
        loose = run_scenario(load_scenario(doc), out_dir=tmp_path / "y")
        assert strict.analyses["consensus_time"]["tol"] == 1e-8
        assert strict.analyses["consensus_time"]["time"] >= loose.analyses["consensus_time"]["time"]

    def test_trajectory_is_run_zero_of_ensemble(self, tmp_path):
        # one engine pass: the trajectory's last row is ensemble row 0, bit for bit
        run_scenario(load_catalog_scenario("average-line"), out_dir=tmp_path, horizon=300, ensemble=4)
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            last = list(csv.reader(fh))[-1]
        with open(tmp_path / "ensemble.csv", newline="") as fh:
            row0 = list(csv.reader(fh))[1]
        assert last[1:len(row0)] == row0[1:]

    def test_timing_splits_the_run_into_phases(self, tmp_path):
        noise = {"kind": "gaussian", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}
        model = dict(MINIMAL["model"], family="noisy_feedback", noise=noise)
        doc = dict(MINIMAL, model=model, horizon=40, ensemble=30, analyses=[{"name": "moments"}])
        timing = run_scenario(load_scenario(doc), out_dir=tmp_path).timing
        assert set(timing) == {"checks_s", "engine", "analyses_s", "analyses", "write_s", "total_s"}
        assert set(timing["engine"]) == {"fill_s", "transform_s", "step_s", "observe_s"}
        assert all(v > 0 for v in timing["engine"].values())
        phases = timing["checks_s"] + sum(timing["engine"].values()) + timing["analyses_s"] + timing["write_s"]
        assert 0 < phases <= timing["total_s"]
        validate_summary(json.loads((tmp_path / "summary.json").read_text()))

    @pytest.mark.parametrize("case_id", ["signum-periodic", "average-consensus"])
    def test_timing_phases_add_up_to_the_total(self, case_id, tmp_path):
        timing = run_scenario(load_catalog_scenario(case_id), out_dir=tmp_path).timing
        phases = timing["checks_s"] + sum(timing["engine"].values()) + timing["analyses_s"] + timing["write_s"]
        assert all(v >= 0 for v in timing["engine"].values())
        assert timing["analyses_s"] >= 0 and timing["write_s"] > 0
        assert abs(phases - timing["total_s"]) <= 0.02 * timing["total_s"]

    def test_summary_json_is_written_inside_write_s(self, tmp_path, monkeypatch):
        # formatting summary.json (tens of ms for a large covariance) is part of the write
        # phase: a slowed encoder's time shows in the file's write_s and total_s
        import time

        dumps = harness.orjson.dumps

        def slow(obj, *args, **kwargs):
            # the patch reaches every orjson call (sanitising, CSV rows); only the summary is slowed
            if isinstance(obj, dict) and "scenario_id" in obj:
                time.sleep(0.3)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(harness.orjson, "dumps", slow)
        summary = run_scenario(load_catalog_scenario("signum-periodic"), out_dir=tmp_path)
        monkeypatch.undo()
        text = (tmp_path / "summary.json").read_text()
        doc = json.loads(text)
        timing = doc["timing"]
        assert timing == summary.timing
        assert timing["write_s"] >= 0.3 and timing["total_s"] >= 0.3
        phases = timing["checks_s"] + sum(timing["engine"].values()) + timing["analyses_s"] + timing["write_s"]
        assert abs(phases - timing["total_s"]) <= 1e-9
        assert text == dumps(doc, option=harness.orjson.OPT_INDENT_2).decode()  # orjson's 2-space layout
        validate_summary(doc)

    @pytest.mark.parametrize("case_id", ["average-clt", "gaussian-dist", "rho-harmonic"])
    def test_timing_has_one_entry_per_analysis_item(self, case_id, tmp_path):
        # each item's seconds are a share of analyses_s, which also holds the diagnostics
        scenario = load_catalog_scenario(case_id)
        summary = run_scenario(scenario, out_dir=tmp_path)
        timing = summary.timing
        assert list(timing["analyses"]) == [item["name"] for item in scenario.analyses] == list(summary.analyses)
        assert all(v > 0 for v in timing["analyses"].values())
        assert sum(timing["analyses"].values()) <= timing["analyses_s"]
        phases = timing["checks_s"] + sum(timing["engine"].values()) + timing["analyses_s"] + timing["write_s"]
        assert abs(phases - timing["total_s"]) <= 1e-9
        validate_summary(json.loads((tmp_path / "summary.json").read_text()))

    def test_a_slow_analysis_shows_in_its_own_entry(self, tmp_path, monkeypatch):
        import time

        moments = harness._ANALYSES["moments"]
        monkeypatch.setitem(harness._ANALYSES, "moments", lambda ctx, item: time.sleep(0.2) or moments(ctx, item))
        noise = {"kind": "gaussian", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}
        model = dict(MINIMAL["model"], family="noisy_feedback", noise=noise)
        doc = dict(MINIMAL, model=model, horizon=40, ensemble=30,
                   analyses=[{"name": "moments"}, {"name": "rank_one"}])
        timing = run_scenario(load_scenario(doc), out_dir=tmp_path).timing
        assert timing["analyses"]["moments"] >= 0.2 > timing["analyses"]["rank_one"]
        assert timing["analyses_s"] >= 0.2

    def test_timing_without_a_model_has_an_idle_engine(self, tmp_path):
        timing = run_scenario(load_catalog_scenario("rho-harmonic"), out_dir=tmp_path).timing
        assert timing["engine"] == {"fill_s": 0.0, "transform_s": 0.0, "step_s": 0.0, "observe_s": 0.0}
        validate_summary(json.loads((tmp_path / "summary.json").read_text()))

    def test_nonfinite_states_fail_loudly(self, tmp_path):
        path = resources.files("consensuslab") / "catalog" / "base-3agent.json"
        doc = json.loads(path.read_text())
        doc["model"]["E"]["eps"] = [1.5, 1.5, 1.9]  # expansive step: overflows to NaN
        doc.update(horizon=3000, ensemble=3)
        with np.errstate(over="ignore", invalid="ignore"):
            summary = run_scenario(load_scenario(doc), out_dir=tmp_path)
        assert not summary.ok
        assert summary.diagnostics["nonfinite_runs"] == 3
        step = summary.diagnostics["first_nonfinite_step"]
        assert isinstance(step, int) and 0 < step <= 3000
        validate_summary(json.loads((tmp_path / "summary.json").read_text()))

    def test_short_rho_table_is_an_error(self, tmp_path):
        table = {"kind": "table", "values": [0.5, 0.5, 0.5]}
        doc = {"schema_version": 1, "id": "short-rho", "horizon": 100, "checks": [
            {"name": "ll1", "rho": table}, {"name": "product_to_zero", "rho": table, "T": 50}]}
        summary = run_scenario(load_scenario(doc), out_dir=tmp_path)
        assert not summary.ok
        assert [row["error"].split(":")[0] for row in summary.checks] == ["ScenarioFormatError"] * 2

    def test_nonlinear_bounds_default_to_the_whole_horizon(self, tmp_path):
        weights = [[[d, 1.0 - d], [1.0 - d, d]] for d in [0.6] * 101 + [0.1] * 100]
        doc = {"schema_version": 1, "id": "late-drop", "horizon": 200,
               "model": {"family": "nonlinear", "n": 2, "A": {"kind": "table", "matrices": weights},
                         "learning_fn": {"kind": "linear", "slope": 0.3}, "sigma_bar": 1.0,
                         "x0": [0.0, 0.5]},
               "checks": [{"name": "nonlinear_bounds"}]}
        row = run_scenario(load_scenario(doc), out_dir=tmp_path).checks[0]
        assert not row["satisfied"]
        assert row["witness"]["T"] == 200 and row["witness"]["min_diagonal"] == 0.1

    def test_a_degenerate_ks_reference_is_an_error(self, tmp_path):
        # deterministic noise makes every run the same point, here with a sample deviation of
        # exactly 0: no normal law fits it, and a zero-width reference is no law at all
        model = dict(MINIMAL["model"], family="noisy_feedback", noise={"kind": "decaying", "rate": 0.99})
        doc = dict(MINIMAL, model=model, horizon=50, ensemble=20, analyses=[
            {"name": "ks_best_fit_normal"}, {"name": "ks", "dist": "normal", "sigma": 0}])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            summary = run_scenario(load_scenario(doc), out_dir=tmp_path)
        assert not summary.ok
        assert summary.analyses == {
            "ks_best_fit_normal": {"error": "ValueError: normal sigma must be positive, got 0.0"},
            "ks": {"error": "ValueError: normal sigma must be positive, got 0.0"},
        }
        validate_summary(json.loads((tmp_path / "summary.json").read_text()))

    @pytest.mark.parametrize("rate", [0.5, 0.9])
    def test_equal_points_fit_no_normal_law_whatever_their_deviation_rounds_to(self, tmp_path, rate):
        # every run is the same point; its sample deviation rounds to about 1e-16, not 0
        model = dict(MINIMAL["model"], family="noisy_feedback", noise={"kind": "decaying", "rate": rate})
        doc = dict(MINIMAL, model=model, horizon=50, ensemble=20, analyses=[{"name": "ks_best_fit_normal"}])
        summary = run_scenario(load_scenario(doc), out_dir=tmp_path)
        assert not summary.ok
        assert summary.analyses == {"ks_best_fit_normal": {"error": "ValueError: normal sigma must be positive, got 0.0"}}

    @pytest.mark.parametrize("times", [[10, -1], [10, 51]])
    def test_mean_error_checkpoints_outside_the_horizon_fail(self, tmp_path, times):
        doc = json.loads((resources.files("consensuslab") / "catalog" / "noisy-decay.json").read_text())
        doc.update(horizon=50, analyses=[{"name": "mean_error_checkpoints", "times": times}])
        summary = run_scenario(load_scenario(doc), out_dir=tmp_path)
        assert not summary.ok
        assert summary.analyses["mean_error_checkpoints"]["error"].startswith("ScenarioFormatError")

    @pytest.mark.parametrize("case_id", ["signum-periodic", "average-consensus", "noisy-decay"])
    def test_run0_stability_diagnostics_for_every_family(self, tmp_path, case_id):
        s = load_catalog_scenario(case_id)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            summary, ctx = harness._execute(s, out_dir=tmp_path)
        diag, traj = summary.diagnostics, ctx.trajectory
        finite = traj.rho[1:][~np.isnan(traj.rho[1:])]
        assert diag["rho_max"] == (float(finite.max()) if finite.size else None)
        assert diag["err_final"] == (None if s.model.sigma_bar is None else float(traj.err_inf[-1]))
        assert diag["osc_final"] == float(traj.osc[-1])
        assert ("dobrushin_zero_steps" in diag) == (case_id == "average-consensus")
        validate_summary(json.loads((tmp_path / "summary.json").read_text()))

    def test_dobrushin_zero_steps_recorded_for_average(self, tmp_path):
        s = load_catalog_scenario("average-consensus")
        summary = run_scenario(s, out_dir=tmp_path)
        assert summary.diagnostics["dobrushin_zero_steps"] == s.horizon

    def test_product_limit_analysis_refuses_other_families(self, tmp_path):
        doc = dict(MINIMAL, horizon=10, analyses=[{"name": "product_limit"}])
        summary = run_scenario(load_scenario(doc), out_dir=tmp_path)
        assert not summary.ok
        assert "average" in summary.analyses["product_limit"]["error"]


class TestResolvedRun:
    """Overrides apply to the whole run: checks, engine, analyses and summary."""

    def test_checks_run_at_the_overridden_horizon(self, tmp_path, capsys):
        assert cli.main(["run", "noisy-decay", "--horizon", "50", "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["horizon"] == 50
        assert [row["witness"]["T"] for row in doc["checks"] if row["name"] == "ll1"] == [50]

    def test_oscillating_rate_table_spans_a_longer_horizon(self, tmp_path, capsys):
        argv = ["run", "epsilon-oscillator", "--horizon", "1200", "--ensemble", "20", "--out-dir", str(tmp_path)]
        assert cli.main(argv) in (0, 1)
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert (doc["horizon"], doc["ensemble"]) == (1200, 20)
        rows = {row["name"]: row for row in doc["checks"]}
        assert rows["ll1"]["witness"]["T"] == rows["ll1b"]["witness"]["T"] == 1200
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + 1201

    def test_analysis_without_a_model_is_reported(self, tmp_path):
        doc = {"schema_version": 1, "id": "no-model", "analyses": [{"name": "moments"}]}
        summary = run_scenario(load_scenario(doc), out_dir=tmp_path)
        assert not summary.ok
        assert summary.analyses["moments"] == {"error": "ScenarioFormatError: analysis 'moments' needs a model"}

    @pytest.mark.parametrize("case_id", ["base-3agent", "average-consensus"])
    def test_overrides_equal_to_the_scenario_change_nothing(self, case_id, tmp_path):
        s = load_catalog_scenario(case_id)
        run_scenario(s, out_dir=tmp_path / "a")
        run_scenario(s, out_dir=tmp_path / "b", horizon=s.horizon, ensemble=s.ensemble, master_seed=s.master_seed)
        for name in ("trajectory.csv", "ensemble.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        a, b = (json.loads((tmp_path / d / "summary.json").read_text()) for d in "ab")
        for doc in (a, b):
            del doc["timing"], doc["outputs"]
        assert a == b

    def test_overrides_leave_the_loaded_scenario_untouched(self, tmp_path):
        s = load_catalog_scenario("noisy-decay")
        before = (s.horizon, s.model, [dict(c) for c in s.checks], [dict(a) for a in s.analyses])
        run_scenario(s, out_dir=tmp_path, horizon=50, overrides={"consensus_time.tol": 0.01})
        assert (s.horizon, s.model, s.checks, s.analyses) == before

    def test_unsupported_ks_level_is_an_analysis_error(self, tmp_path):
        noise = {"kind": "gaussian", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}
        model = dict(MINIMAL["model"], family="noisy_feedback", noise=noise)
        doc = dict(MINIMAL, model=model, horizon=5, ensemble=20,
                   analyses=[{"name": "ks", "dist": "normal", "level": 0.005}])
        summary = run_scenario(load_scenario(doc), out_dir=tmp_path)
        assert not summary.ok
        assert summary.analyses["ks"]["error"].startswith("ValueError: unsupported KS level 0.005")

    def test_a_drift_time_past_the_horizon_names_the_time_and_the_horizon(self, tmp_path):
        summary = run_scenario(load_catalog_scenario("epsilon-oscillator"), out_dir=tmp_path,
                               horizon=500, ensemble=20)
        assert not summary.ok
        assert summary.analyses["drift"] == {
            "error": "ScenarioFormatError: time 918 lies outside the horizon 0..500"
        }

    def test_analysis_times_are_recorded_or_rejected(self, tmp_path):
        noise = {"kind": "gaussian", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}
        model = dict(MINIMAL["model"], family="noisy_feedback", noise=noise)
        analyses = [{"name": "moments", "at": 3}, {"name": "rank_one", "at": 9}]
        doc = dict(MINIMAL, model=model, horizon=5, ensemble=20, analyses=analyses)
        summary, ctx = harness._execute(load_scenario(doc), tmp_path)
        # an `at` time inside the horizon is recorded without being listed in snapshot_times
        assert np.array_equal(summary.analyses["moments"]["mean"], ctx.ensemble.snapshots[3].mean(axis=0))
        assert summary.analyses["rank_one"] == {"error": "ScenarioFormatError: time 9 lies outside the horizon 0..5"}

    @pytest.mark.parametrize("times, error", [
        (["x", 10], "ValueError: invalid literal for int() with base 10: 'x'"),
        ([[1], 10], "TypeError: int() argument must be"),
        (7, "TypeError: 'int' object is not iterable"),
    ])
    def test_a_bad_drift_time_is_the_drift_row(self, times, error, tmp_path):
        noise = {"kind": "gaussian", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}
        model = dict(MINIMAL["model"], family="noisy_feedback", noise=noise)
        doc = dict(MINIMAL, model=model, horizon=10, ensemble=20,
                   analyses=[{"name": "drift", "times": [5, 10]}, {"name": "moments"}])
        summary = run_scenario(load_scenario(doc), out_dir=tmp_path, overrides={"drift.times": times})
        assert not summary.ok
        assert list(summary.analyses["drift"]) == ["error"] and summary.analyses["drift"]["error"].startswith(error)
        assert "error" not in summary.analyses["moments"]
        assert json.loads((tmp_path / "summary.json").read_text())["analyses"]["drift"] == summary.analyses["drift"]

    @pytest.mark.parametrize("analysis, overrides, time", [
        ({"name": "drift", "times": [5.5, 10.9, 20]}, None, 5.5),
        ({"name": "drift", "times": [5, 20]}, {"drift.times": [2.7, 20]}, 2.7),
        ({"name": "mean_error_checkpoints", "times": [2, 12.5]}, None, 12.5),
        ({"name": "moments", "at": 7.5}, None, 7.5),
    ], ids=["drift", "drift-override", "mean_error_checkpoints", "at"])
    def test_a_fractional_time_is_the_analysis_row(self, analysis, overrides, time, tmp_path):
        noise = {"kind": "gaussian", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}
        model = dict(MINIMAL["model"], family="noisy_feedback", noise=noise)
        doc = dict(MINIMAL, model=model, horizon=20, ensemble=20, analyses=[analysis, {"name": "rank_one"}])
        summary = run_scenario(load_scenario(doc), out_dir=tmp_path, overrides=overrides)
        assert not summary.ok
        assert summary.analyses[analysis["name"]] == {"error": f"ScenarioFormatError: time {time} is not a whole step"}
        assert "error" not in summary.analyses["rank_one"]

    def test_integral_float_times_are_whole_steps(self, tmp_path):
        noise = {"kind": "gaussian", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}
        model = dict(MINIMAL["model"], family="noisy_feedback", noise=noise)
        summaries = []
        for kind in (int, float):
            analyses = [{"name": "drift", "times": [kind(5), kind(10), kind(20)]},
                        {"name": "moments", "at": kind(7)},
                        {"name": "mean_error_checkpoints", "times": [kind(2), kind(20)]}]
            doc = dict(MINIMAL, model=model, horizon=20, ensemble=20, analyses=analyses)
            summaries.append(run_scenario(load_scenario(doc), out_dir=tmp_path / kind.__name__))
        assert all(s.ok for s in summaries)
        assert summaries[0].analyses == summaries[1].analyses

    def test_snapshot_times_outside_the_horizon_are_reported(self, tmp_path):
        noise = {"kind": "gaussian", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}
        model = dict(MINIMAL["model"], family="noisy_feedback", noise=noise)
        doc = dict(MINIMAL, model=model, horizon=10, ensemble=4, snapshot_times=[12, 3, 10, 40])
        summary, ctx = harness._execute(load_scenario(doc), tmp_path)
        assert not summary.ok
        assert summary.diagnostics["snapshot_times_outside"] == [12, 40]
        assert sorted(ctx.ensemble.snapshots) == [3, 10]  # the times inside are still recorded
        assert json.loads((tmp_path / "summary.json").read_text())["diagnostics"]["snapshot_times_outside"] == [12, 40]
        inside = run_scenario(load_scenario(dict(doc, snapshot_times=[3, 10])), out_dir=tmp_path)
        assert inside.ok and "snapshot_times_outside" not in inside.diagnostics


class TestReproduceFast:
    # the quick catalog predicates; the slow ones run in the acceptance suite
    @pytest.mark.parametrize("case_id", ["base-3agent", "signum-periodic", "average-consensus", "noisy-decay"])
    def test_case_passes(self, case_id, tmp_path):
        _, passed, detail = reproduce(case_id, out_dir=tmp_path)
        assert passed, detail


class TestCLI:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "average-clt" in out

    def test_run_exit_zero(self, tmp_path, capsys):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(dict(MINIMAL, horizon=10)))
        assert cli.main(["run", str(p), "--out-dir", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "summary.json").exists()

    def test_run_catalog_id(self, tmp_path):
        assert cli.main(["run", "signum-periodic", "--out-dir", str(tmp_path)]) == 0

    @pytest.mark.parametrize("argv, name, error", [
        (["cauchy-invariant", "--tol", "ks.coordinate=-1"], "ks",
         "ScenarioFormatError: coordinate -1 lies outside the components 0..0"),
        (["cauchy-invariant", "--tol", "ks.coordinate=0.7"], "ks",
         "ScenarioFormatError: coordinate 0.7 is not a whole number"),
        (["cauchy-invariant", "--tol", 'ks.dist="normal"', "--tol", "ks.mu=NaN"], "ks", "ValueError: mu must be finite"),
        (["cauchy-invariant", "--tol", "ks.scale=Infinity"], "ks", "ValueError: scale must be finite"),
        (["signum-periodic", "--tol", "periodicity.max_period=8.9"], "periodicity",
         "ScenarioFormatError: max_period 8.9 is not a whole number"),
        (["base-3agent", "--tol", "consensus_time.tol=NaN"], "consensus_time", "ValueError: tol must be finite"),
        (["signum-periodic", "--tol", "periodicity.tol=NaN"], "periodicity", "ValueError: tol must be finite"),
        (["rho-harmonic", "--tol", "product_to_zero.decrement_tol=NaN"], "product_to_zero",
         "ValueError: decrement_tol must be finite"),
        (["average-consensus", "--tol", "product_limit.rank_one_tol=NaN"], "product_limit",
         "ValueError: rank_one_tol must be finite"),
        (["average-clt", "--horizon", "100", "--tol", "clt_check.rel_tol=NaN"], "clt_check",
         "ValueError: rel_tol must be finite"),
        (["average-consensus", "--tol", "product_limit.t_max=10.7"], "product_limit",
         "ScenarioFormatError: t_max 10.7 is not a whole number"),
        (["gaussian-dist", "--tol", "drift.decay_ratio=NaN"], "drift", "ValueError: decay_ratio must be finite"),
        (["base-3agent", "--tol", "base_rates.beta=[1, 1, 1]", "--tol", "base_rates.delta=NaN"], "base_rates",
         "ValueError: delta must be finite"),
        (["base-3agent", "--tol", "base_rates.beta=[1, NaN, 1]", "--tol", "base_rates.delta=0.5"], "base_rates",
         "ValueError: beta must be finite"),
        (["base-3agent", "--tol", "ll1.sup_bound=NaN"], "ll1", "ValueError: sup_bound must be finite"),
        (["rho-harmonic", "--tol", 'll1.rho={"kind": "constant", "value": NaN}'], "ll1",
         "ValueError: value must be finite"),
        (["nonlinear-tanh", "--tol", "nonlinear_bounds.grid=[-3.0, NaN, 100]"], "nonlinear_bounds",
         "ValueError: grid must be finite"),
        (["nonlinear-tanh", "--tol", "nonlinear_bounds.grid=[-3.0, 3.0, 100.5]"], "nonlinear_bounds",
         "ScenarioFormatError: grid point count 100.5 is not a whole number"),
        (["base-3agent", "--tol", "consensus_time.tol=true"], "consensus_time",
         "ScenarioFormatError: True is not a number (at tol)"),
        (["average-consensus", "--tol", "product_limit.t_max=true"], "product_limit",
         "ScenarioFormatError: t_max True is not a whole number"),
        (["base-3agent", "--tol", "base_rates.beta=[1, true, 1]", "--tol", "base_rates.delta=0.5"], "base_rates",
         "ScenarioFormatError: True is not a number (at beta/1)"),
        (["rho-harmonic", "--tol", 'll1.rho={"kind": "table", "values": [0.5, false]}'], "ll1",
         "ScenarioFormatError: False is not a number (at values/1)"),
        (["nonlinear-tanh", "--tol", "nonlinear_bounds.grid=[-3.0, true, 100]"], "nonlinear_bounds",
         "ScenarioFormatError: True is not a number (at grid/1)"),
        (["average-consensus", "--tol", 'average_rates.strict="no"'], "average_rates",
         "ScenarioFormatError: strict 'no' is not a boolean"),
    ], ids=["negative-coordinate", "fractional-coordinate", "nan-mu", "infinite-scale", "fractional-max-period",
            "nan-consensus-tol", "nan-periodicity-tol", "nan-decrement-tol", "nan-rank-one-tol", "nan-rel-tol",
            "fractional-t-max", "nan-decay-ratio", "nan-delta", "nan-beta",
            "nan-sup-bound", "nan-rho-value", "nan-grid", "fractional-grid-count",
            "boolean-tol", "boolean-t-max", "boolean-beta", "boolean-rho-value", "boolean-grid", "string-strict"])
    def test_an_analysis_parameter_it_cannot_take_is_an_error_row(self, tmp_path, argv, name, error):
        # each of these once analysed or checked something else (the last component, component 0,
        # a NaN statistic, period 8, a null or flipped figure, a truncated count) and reported ok
        assert cli.main(["run", *argv, "--ensemble", "200", "--out-dir", str(tmp_path)]) == 1
        doc = json.loads((tmp_path / "summary.json").read_text())
        rows = {**doc["analyses"], **{row.pop("name"): row for row in doc["checks"]}}
        assert doc["ok"] is False and rows[name] == {"error": error}

    @pytest.mark.parametrize("strict", ["true", "false"])
    def test_a_boolean_strict_is_taken_and_any_other_value_is_the_check_error(self, strict, tmp_path):
        # a truthy non-boolean once named strict mode: check exited 0 with "strict": true
        argv = ["check", "average-consensus", "--out-dir", str(tmp_path)]
        assert cli.main([*argv, "--tol", f"average_rates.strict={strict}"]) == 0
        row = json.loads((tmp_path / "summary.json").read_text())["checks"][0]
        assert row["witness"]["strict"] is (strict == "true")
        assert cli.main([*argv, "--tol", 'average_rates.strict="no"']) == 1
        row = json.loads((tmp_path / "summary.json").read_text())["checks"][0]
        assert row == {"name": "average_rates", "error": "ScenarioFormatError: strict 'no' is not a boolean"}

    @pytest.mark.parametrize("case_id, override, name", [
        ("cauchy-invariant", "ks.coordinate=0.0", "ks"), ("signum-periodic", "periodicity.max_period=8.0", "periodicity"),
    ])
    def test_a_whole_float_parameter_is_its_integer(self, tmp_path, case_id, override, name):
        assert cli.main(["run", case_id, "--ensemble", "200", "--out-dir", str(tmp_path / "a")]) == 0
        assert cli.main(["run", case_id, "--ensemble", "200", "--tol", override, "--out-dir", str(tmp_path / "b")]) == 0
        rows = [json.loads((tmp_path / side / "summary.json").read_text())["analyses"][name] for side in "ab"]
        assert rows[0] == rows[1] and "error" not in rows[0]

    def test_check_failing_condition_exits_one(self, tmp_path):
        assert cli.main(["check", "rho-exp-nonzero", "--out-dir", str(tmp_path)]) == 1

    def test_check_passing_condition_exits_zero(self, tmp_path):
        assert cli.main(["check", "base-3agent", "--out-dir", str(tmp_path)]) == 0

    def test_reproduce_pass(self, tmp_path, capsys):
        assert cli.main(["reproduce", "signum-periodic", "--out-dir", str(tmp_path)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_reproduce_unknown_case_exits_two(self, tmp_path):
        assert cli.main(["reproduce", "nope"]) == 2

    def test_bad_scenario_file_exits_two(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{\"schema_version\": 1}")
        assert cli.main(["run", str(p)]) == 2

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as e:
            cli.main(["frobnicate"])
        assert e.value.code == 2

    def test_stats_subcommand(self, tmp_path, capsys):
        s = load_scenario(dict(MINIMAL, horizon=10, ensemble=5,
                               model=dict(MINIMAL["model"], noise={"kind": "rademacher"},
                                          family="noisy_feedback")))
        run_scenario(s, out_dir=tmp_path)
        assert cli.main(["stats", str(tmp_path / "ensemble.csv")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rows"] == 5 and report["components"] == 2

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        assert cli.main(["run", "gaussian-dist", "--seed", "-3", "--out-dir", str(tmp_path)]) == 2
        assert "-3 is less than the minimum of 0 (at /master_seed)" in capsys.readouterr().err

    def test_an_oversized_scenario_exits_two(self, tmp_path):
        # 100 agents over the largest horizon the schema admits, 10**7 steps, ask the engine
        # for a 7.45 GiB state record; under its own 2 GiB address-space limit the allocation
        # fails whatever the host's overcommit
        import subprocess
        import sys
        from pathlib import Path

        import consensuslab

        pytest.importorskip("resource")
        n = 100
        model = dict(MINIMAL["model"], n=n, A={"kind": "constant", "matrix": np.full((n, n), 1 / n).tolist()},
                     E={"kind": "constant", "eps": [0.5] * n}, x0=[0.0] * n)
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(dict(MINIMAL, model=model, horizon=10**7)))
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))\n"
            "from consensuslab import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = str(Path(consensuslab.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script, "run", str(p), "--out-dir", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: Unable to allocate 7.45 GiB") and "Traceback" not in done.stderr

    def test_stats_missing_file(self):
        assert cli.main(["stats", "missing.csv"]) == 2

    @pytest.mark.parametrize("text, message", [
        ("", "expected a header and at least one row"),
        ("run,component_0\r\n0,1.0\r\n1\r\n", ":3: 1 fields where the header has 2"),
        ("run,x\r\n0,1.0\r\n1,2.0\r\n", "no component_ column"),
    ], ids=["empty", "ragged", "no_components"])
    def test_stats_on_an_unreadable_csv_exits_two(self, text, message, tmp_path, capsys):
        p = tmp_path / "ensemble.csv"
        p.write_text(text)
        assert cli.main(["stats", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_tol_override_flag(self, tmp_path):
        rc = cli.main([
            "run", "base-3agent",
            "--out-dir", str(tmp_path),
            "--tol", "consensus_time.tol=1e-9",
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["analyses"]["consensus_time"]["tol"] == 1e-9

    def test_override_typo_exits_two(self, tmp_path, capsys):
        for key in ("consensus_tiem.tol", "consensus_time"):
            rc = cli.main(["run", "base-3agent", "--out-dir", str(tmp_path), "--tol", f"{key}=1e-30"])
            assert rc == 2
            assert "consensus_time" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()
