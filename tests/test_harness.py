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
            "engine": {"runs": 1, "steps": 20, "uniforms_drawn": 0, "tiles": 1, "philox_calls": 0,
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
        # one tile and one 30-step chunk, so one Philox call per run, transformed a run at a
        # time on the filling thread (Rademacher noise), and one 4-step stage, both 8 runs
        # wide (5 runs and 3 zero-noise pad runs)
        assert summary.diagnostics["engine"] == {
            "runs": 5, "steps": 30, "uniforms_drawn": 30 * 2 * 5, "tiles": 1, "philox_calls": 5,
            "transform_parts": 5, "chunk_steps": 30, "noise_buffer_bytes_peak": 8 * 30 * 2 * 8 + 8 * 4 * 2 * 8,
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

    def test_rerun_is_byte_identical(self, tmp_path):
        s = load_catalog_scenario("signum-periodic")
        run_scenario(s, out_dir=tmp_path / "a")
        run_scenario(s, out_dir=tmp_path / "b")
        for name in ("trajectory.csv", "ensemble.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_summary_validates_against_schema(self, tmp_path):
        summary = run_scenario(load_scenario(dict(MINIMAL, horizon=10)), out_dir=tmp_path)
        doc = json.loads((tmp_path / "summary.json").read_text())
        validate_summary(doc)
        assert doc == {**summary.to_json(), "outputs": {k: v for k, v in summary.to_json()["outputs"].items() if k != "summary_json"}}
        # every numeric field in the document is finite (json.dump was strict)
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
        assert set(timing) == {"checks_s", "engine", "analyses_s", "write_s", "total_s"}
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

        iterencode = json.JSONEncoder.iterencode

        def slow(self, o, *args, **kwargs):
            if isinstance(o, dict) and "scenario_id" in o:
                time.sleep(0.3)
            return iterencode(self, o, *args, **kwargs)

        monkeypatch.setattr(json.JSONEncoder, "iterencode", slow)
        summary = run_scenario(load_catalog_scenario("signum-periodic"), out_dir=tmp_path)
        monkeypatch.undo()
        text = (tmp_path / "summary.json").read_text()
        doc = json.loads(text)
        timing = doc["timing"]
        assert timing == summary.timing
        assert timing["write_s"] >= 0.3 and timing["total_s"] >= 0.3
        phases = timing["checks_s"] + sum(timing["engine"].values()) + timing["analyses_s"] + timing["write_s"]
        assert abs(phases - timing["total_s"]) <= 1e-9
        assert text == json.dumps(doc, indent=2)  # the format json.dump(..., indent=2) writes
        validate_summary(doc)

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
        assert "expected non-negative integer" in capsys.readouterr().err

    def test_an_oversized_scenario_exits_two(self, tmp_path):
        # a horizon of 10**12 asks the engine for a 14.6 TiB state record; under its own
        # 2 GiB address-space limit the allocation fails whatever the host's overcommit
        import subprocess
        import sys
        from pathlib import Path

        import consensuslab

        pytest.importorskip("resource")
        doc = json.loads(resources.files("consensuslab").joinpath("catalog/gaussian-dist.json").read_text())
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(dict(doc, horizon=10**12)))
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
        assert done.stderr.startswith("error: Unable to allocate") and "Traceback" not in done.stderr

    def test_stats_missing_file(self):
        assert cli.main(["stats", "missing.csv"]) == 2

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
