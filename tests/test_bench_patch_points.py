"""The benchmark's tracer patches library names by attribute; they must exist.

``bench/tracing.py`` replaces functions such as ``harness.simulate`` and
``dynamics.sample_noise_block`` at their call sites. Dropping or renaming one
of them breaks traced benchmark runs, so this test enters and exits the
tracer's patch set on every test run.
"""

import importlib.util
from pathlib import Path

from consensuslab import harness, load_scenario, run_scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patch_points_exist_and_are_restored(tmp_path):
    tracing = _load_tracing()
    originals = (harness.simulate, harness.simulate_ensemble)
    tracer = tracing.Tracer()
    doc = {
        "schema_version": 1,
        "id": "traced",
        "model": {
            "family": "average",
            "n": 2,
            "A": {"kind": "constant", "matrix": [[0.6, 0.4], [0.3, 0.7]]},
            "E": {"kind": "constant", "eps": [0.4, 0.2]},
            "noise": {"kind": "gaussian", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
            "x0": [0.0, 0.0],
        },
        "horizon": 20,
        "ensemble": 3,
    }
    with tracing.Patched(tracer):
        assert harness.simulate is not originals[0]
        assert run_scenario(load_scenario(doc), out_dir=tmp_path).ok
    assert (harness.simulate, harness.simulate_ensemble) == originals
    # one engine pass per model scenario, drawing one noise block per run
    assert tracer.counts["dynamics.engine_calls"] == 1
    assert tracer.self_times(0, tracer.span_count())["noise.block"][1] == 3
