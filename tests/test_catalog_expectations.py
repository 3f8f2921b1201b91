"""Catalog acceptance as data: each manifest case's ``expect`` rows and the one verdict that reads them.

The thirteen cases run once. Each expectation row is then pushed across its
bound in a copy of the finished summary, and the case's verdict must flip,
so no row is vacuous. The same runs' CSV files must keep the SHA-256
digests recorded in ``data/catalog_digests.json``, so a change to any
catalog byte is a diff of that file.
"""

import copy
import hashlib
import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from consensuslab import harness, load_catalog_scenario, load_scenario, run_scenario

MANIFEST = json.loads((resources.files("consensuslab") / "catalog" / "manifest.json").read_text())["cases"]
EXPECT = {case["id"]: case["expect"] for case in MANIFEST}
ROWS = [(case_id, i) for case_id, rows in EXPECT.items() for i in range(len(rows))]


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """``reproduce``'s ``(summary, passed, detail)`` for every catalog case, one run each."""
    out = tmp_path_factory.mktemp("catalog")
    return {case_id: harness.reproduce(case_id, out_dir=out / case_id) for case_id in harness.catalog()}


def _set(summary, path: str, value) -> None:
    """Set the value at ``path`` in ``summary``; past a ``[*]``, in the first element."""
    keys = path.replace("[*]", ".0").split(".")
    node = {"checks": {row["name"]: row for row in summary.checks},
            "analyses": summary.analyses, "diagnostics": summary.diagnostics}[keys[0]]
    for key in keys[1:-1]:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[keys[-1]] = value


def _across(row: dict):
    """The nearest value on the failing side of ``row``'s bound."""
    op, bound = row["op"], row.get("bound")
    if op == "not_null":
        return None
    if op == "eq":
        return (not bound) if isinstance(bound, bool) else bound + 1
    if op == "close_to":
        return bound + 1.5 * (row["abs_tol"] if "abs_tol" in row else row["rel_tol"] * abs(bound))
    return {"lt": bound, "le": bound + 1, "gt": bound}[op]


def test_the_manifest_uses_every_op_and_every_case_has_a_verdict():
    rows = [row for rows in EXPECT.values() for row in rows]
    assert {row["op"] for row in rows} == set(harness._OPS)
    assert {row["path"].split(".")[0] for row in rows} == {"checks", "analyses", "diagnostics"}
    for row in rows:
        assert set(row) <= {"path", "op", "bound", "abs_tol", "rel_tol"}
        assert ("bound" in row) == (row["op"] != "not_null")
        assert len({"abs_tol", "rel_tol"} & set(row)) == (row["op"] == "close_to")
    assert list(harness._PREDICATES) == list(EXPECT) == harness.catalog()


DIGESTS = Path(__file__).parent / "data" / "catalog_digests.json"


def _stack() -> dict:
    """The versions the catalog bytes depend on: numpy (Philox, its normals, BLAS calls) and the BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def test_every_case_keeps_its_csv_digests(finished):
    digests = {case_id: {Path(summary.outputs[key]).name: hashlib.sha256(Path(summary.outputs[key]).read_bytes())
                         .hexdigest() for key in ("trajectory_csv", "ensemble_csv") if key in summary.outputs}
               for case_id, (summary, _, _) in finished.items()}
    replacement = json.dumps({"stack": _stack(), "cases": digests}, indent=2)
    recorded = json.loads(DIGESTS.read_text())
    if recorded["stack"] != _stack():
        pytest.skip(f"digests recorded on {recorded['stack']}, not on this stack: {replacement}")
    differ = sorted(case_id for case_id in digests.keys() | recorded["cases"].keys()
                    if digests.get(case_id) != recorded["cases"].get(case_id))
    assert not differ, f"catalog CSV bytes differ in {differ}; a declared change replaces {DIGESTS.name} by\n{replacement}"


@pytest.mark.parametrize("case_id", list(EXPECT))
def test_every_case_meets_its_expectations(case_id, finished):
    summary, passed, detail = finished[case_id]
    assert passed is True, detail
    assert summary.ok
    entries = detail.split("; ")
    assert [entry.split("=")[0] for entry in entries] == [row["path"] for row in EXPECT[case_id]]


@pytest.mark.parametrize("case_id, i", ROWS, ids=[f"{case_id}-{i}" for case_id, i in ROWS])
def test_each_row_flips_the_verdict_across_its_bound(case_id, i, finished):
    row = EXPECT[case_id][i]
    summary = copy.deepcopy(finished[case_id][0])
    assert harness._PREDICATES[case_id](summary, None)[0]
    _set(summary, row["path"], _across(row))
    passed, detail = harness._PREDICATES[case_id](summary, None)
    assert not passed
    assert detail.count("FAILED ") == 1 and f"FAILED {row['path']}=" in detail


@pytest.mark.parametrize("path", [
    "analyses.drift.max_distance",  # null
    "analyses.no_such_analysis.value",  # missing
    "checks.no_such_check.satisfied",
    "diagnostics.no_such_field",
    "analyses.drift.max_distance.deeper",
    "analyses.ks_best_fit_normal.per_coordinate[*].exceeds_critical",  # empty list
    "analyses.drift[*].max_distance",  # not a list
    "analyses.no_such_analysis.rows[*].value",  # missing list
])
@pytest.mark.parametrize("op", sorted(harness._OPS))
def test_a_missing_or_null_value_or_an_empty_list_fails_every_op(op, path, finished):
    summary = copy.deepcopy(finished["rademacher-dist"][0])
    summary.analyses["drift"]["max_distance"] = None
    summary.analyses["ks_best_fit_normal"]["per_coordinate"] = []
    passed, detail = harness._verdict([{"path": path, "op": op, "bound": 0.0, "abs_tol": 1.0}], summary)
    assert not passed and detail.startswith(f"FAILED {path}=")


def test_an_errored_check_fails_an_expectation_that_it_is_unsatisfied(finished):
    # `not satisfied` used to pass when the check had no verdict at all
    summary = copy.deepcopy(finished["epsilon-oscillator"][0])
    row = next(row for row in summary.checks if row["name"] == "ll1b")
    row.clear()
    row.update(name="ll1b", error="ScheduleError: schedule failed at t=3")
    passed, detail = harness._PREDICATES["epsilon-oscillator"](summary, None)
    assert not passed and "FAILED checks.ll1b.satisfied=None eq False" in detail


class TestContractionEnvelope:
    """Run 0 contracts by its own rho_t at every step: err_inf[t] <= rho_t err_inf[t-1] + 1e-12."""

    @pytest.mark.parametrize("case_id", ["base-3agent", "nonlinear-tanh"])
    def test_the_catalog_cases_contract_at_every_step(self, case_id, finished):
        summary = finished[case_id][0]
        row = summary.analyses["contraction_envelope"]
        assert row["holds"] is True and row["max_excess"] <= 1e-12
        assert 1 <= row["step"] <= summary.horizon
        assert list(summary.timing["analyses"]) == ["consensus_time", "contraction_envelope"]

    @pytest.mark.parametrize("case_id", ["base-3agent", "noisy-decay"])
    def test_the_row_is_the_per_step_rule(self, case_id, tmp_path):
        doc = dict(load_catalog_scenario(case_id).raw, horizon=80, analyses=[{"name": "contraction_envelope"}])
        summary, ctx = harness._execute(load_scenario(doc), tmp_path)
        err, rho = ctx.trajectory.err_inf, ctx.trajectory.rho
        excess = [err[t] - rho[t] * err[t - 1] for t in range(1, 81)]
        worst = max(range(80), key=excess.__getitem__)
        assert summary.analyses["contraction_envelope"] == {
            "holds": excess[worst] <= 1e-12, "max_excess": excess[worst], "step": worst + 1,
        }
        if case_id == "base-3agent":
            assert np.all(rho[1:] == rho[1]) and summary.analyses["contraction_envelope"]["holds"]
        else:  # the decaying disturbance pushes the error past the contraction of the first steps
            assert not summary.analyses["contraction_envelope"]["holds"]

    @pytest.mark.parametrize("case_id, horizon", [("average-consensus", 20), ("signum-periodic", 20),
                                                  ("base-3agent", 0)])
    def test_no_figure_no_target_or_no_step_is_an_error_row(self, case_id, horizon, tmp_path):
        doc = dict(load_catalog_scenario(case_id).raw, horizon=horizon, analyses=[{"name": "contraction_envelope"}])
        summary = run_scenario(load_scenario(doc), out_dir=tmp_path)
        assert not summary.ok
        assert summary.analyses["contraction_envelope"]["error"].startswith("ValueError: the contraction envelope")
