"""The benchmark's correctness gate, applied to its tiny workloads.

``bench/child.py`` fails a pass of a generated scenario that misses
``workloads.generated_predicate``, reports ``ok`` false or ends in a
non-finite state. This test reads ``bench/workloads.py`` as it is, runs
its ``tiny`` documents through ``run_scenario`` and applies the same gate,
so a change that would fail the benchmark's check fails here first.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from consensuslab import load_scenario, run_scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


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


@pytest.mark.parametrize("workload", [workloads.WIDE_AGENTS, workloads.MANY_RUNS])
def test_full_workload_documents_fit_the_schema(workload):
    (doc,) = workloads.generate(workload, 401, "full")
    scenario = load_scenario(doc)
    assert (scenario.model.n, scenario.ensemble, scenario.horizon) == workloads.SIZES[workload]["full"]
