import csv
import json
from importlib import resources

import numpy as np
import pytest

import consensuslab.cli as cli
from consensuslab import (
    ModelSpec,
    ScenarioFormatError,
    catalog,
    load_catalog_scenario,
    linear_learning,
    load_scenario,
    model_rho_sequence,
    reproduce,
    run_scenario,
    scaled_tanh_learning,
    simulate,
    validate_summary,
)
from consensuslab.harness import catalog_description


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

    def test_loads_from_file(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(MINIMAL))
        assert load_scenario(p).scenario_id == "mini"

    def test_missing_file(self):
        with pytest.raises(ScenarioFormatError, match="not found"):
            load_scenario("does/not/exist.json")


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

    def test_per_agent_nonlinear_model_matches_engine(self):
        a = [[0.6, 0.4, 0.0], [0.2, 0.5, 0.3], [0.0, 0.3, 0.7]]
        fs = [linear_learning(0.3), scaled_tanh_learning(0.4), linear_learning(0.5)]
        spec = ModelSpec.nonlinear(a, fs, [1.0, -1.0, 0.5], sigma_bar=0.0)
        assert np.array_equal(model_rho_sequence(spec, 6), simulate(spec, 6, seed=0).rho[1:])

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
        summary = run_scenario(load_scenario(doc), out_dir=tmp_path)
        assert summary.ok
        assert summary.diagnostics == {"nonfinite_runs": 0, "first_nonfinite_step": None}
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "component_0", "component_1", "err_inf", "osc"]
        assert len(rows) == 22
        with open(tmp_path / "ensemble.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run", "component_0", "component_1"]
        assert len(rows) == 2

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

    def test_dobrushin_zero_steps_recorded_for_average(self, tmp_path):
        s = load_catalog_scenario("average-consensus")
        summary = run_scenario(s, out_dir=tmp_path)
        assert summary.diagnostics["dobrushin_zero_steps"] == s.horizon

    def test_product_limit_analysis_refuses_other_families(self, tmp_path):
        doc = dict(MINIMAL, horizon=10, analyses=[{"name": "product_limit"}])
        summary = run_scenario(load_scenario(doc), out_dir=tmp_path)
        assert not summary.ok
        assert "average" in summary.analyses["product_limit"]["error"]


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
