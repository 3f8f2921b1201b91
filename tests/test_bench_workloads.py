"""The benchmark's correctness gate, applied to its tiny workloads and the fast catalog cases.

``bench/child.py`` fails a pass of a generated scenario that misses
``workloads.generated_predicate``, reports ``ok`` false or ends in a
non-finite state, and a pass of a catalog case that misses its verdict in
``harness._PREDICATES``. These tests read ``bench/workloads.py`` and
``bench/child.py`` as they are and apply the same gate, so a change that
would fail the benchmark's check fails here first. The tiny workloads'
CSV files at seed 401 must keep the SHA-256 digests recorded in
``data/workload_digests.json``, beside the catalog's.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from consensuslab import harness, load_scenario, run_scenario
from test_catalog_expectations import _stack

BENCH = Path(__file__).resolve().parents[1] / "bench"
DIGESTS = Path(__file__).parent / "data" / "workload_digests.json"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _load_child(monkeypatch):
    # child.py imports workloads as a top-level module, as it does when run from bench/
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec = importlib.util.spec_from_file_location("bench_child", BENCH / "child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 401])
@pytest.mark.parametrize("workload", [workloads.WIDE_AGENTS, workloads.MANY_RUNS])
def test_tiny_workload_passes_the_benchmark_check(workload, seed, tmp_path):
    (doc,) = workloads.generate(workload, seed, "tiny")
    summary = run_scenario(load_scenario(doc), out_dir=tmp_path)
    passed, detail = workloads.generated_predicate(summary, None)
    assert passed, detail
    assert summary.ok
    ens = np.loadtxt(summary.outputs["ensemble_csv"], delimiter=",", skiprows=1, ndmin=2)
    traj = np.loadtxt(summary.outputs["trajectory_csv"], delimiter=",", skiprows=1, ndmin=2)
    n = ens.shape[1] - 1
    assert ens.shape[0] == summary.ensemble and np.isfinite(ens).all()
    assert np.isfinite(traj[-1, 1 : 1 + n]).all()  # run 0's terminal state


def test_tiny_workloads_keep_their_csv_digests(tmp_path):
    # the catalog digests' rule: on another numpy or BLAS the bytes may differ, so the test skips
    digests = {}
    for workload in (workloads.WIDE_AGENTS, workloads.MANY_RUNS):
        (doc,) = workloads.generate(workload, 401, "tiny")
        outputs = run_scenario(load_scenario(doc), out_dir=tmp_path / workload).outputs
        digests[workload] = {Path(outputs[key]).name: hashlib.sha256(Path(outputs[key]).read_bytes()).hexdigest()
                             for key in ("trajectory_csv", "ensemble_csv")}
    replacement = json.dumps({"stack": _stack(), "workloads": digests}, indent=2)
    recorded = json.loads(DIGESTS.read_text())
    if recorded["stack"] != _stack():
        pytest.skip(f"digests recorded on {recorded['stack']}, not on this stack: {replacement}")
    differ = sorted(w for w in digests.keys() | recorded["workloads"].keys()
                    if digests.get(w) != recorded["workloads"].get(w))
    assert not differ, f"tiny workload CSV bytes differ in {differ}; a declared change replaces {DIGESTS.name} by\n{replacement}"


@pytest.mark.parametrize("workload", [workloads.WIDE_AGENTS, workloads.MANY_RUNS])
def test_full_workload_documents_fit_the_schema(workload):
    (doc,) = workloads.generate(workload, 401, "full")
    scenario = load_scenario(doc)
    assert (scenario.model.n, scenario.ensemble, scenario.horizon) == workloads.SIZES[workload]["full"]


@pytest.mark.parametrize("workload, geometry", [(workloads.WIDE_AGENTS, (504, 5)),
                                                (workloads.MANY_RUNS, (50_000, 2))])
def test_full_workload_engine_geometry(workload, geometry):
    # (width, chunk_steps): the most whole steps of every run that fit half the chunk budget
    from consensuslab.noise import NoiseChunks

    (doc,) = workloads.generate(workload, 401, "full")
    scenario = load_scenario(doc)
    chunks = NoiseChunks(scenario.model.noise, scenario.horizon, scenario.ensemble, scenario.master_seed)
    assert (chunks.width, chunks.chunk_steps) == geometry


def test_the_catalog_gate_passes_the_fast_cases(tmp_path, monkeypatch):
    child = _load_child(monkeypatch)
    assert set(harness._PREDICATES) == set(harness.catalog())
    check = child.Checker(dict(harness._PREDICATES))
    cases = ["base-3agent", "signum-periodic", "average-consensus", "noisy-decay"]
    totals = child._run_pass([harness.load_catalog_scenario(case) for case in cases], tmp_path,
                             harness._execute, check)
    assert totals["problems"] == []
    assert totals["run0_mismatch"] == totals["items_failed"] == 0 and totals["items_attempted"] > len(cases)
    assert sorted(check.digests) == sorted(cases)
