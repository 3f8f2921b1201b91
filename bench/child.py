"""One benchmark process: set up a workload, run passes, check them, report.

Started by ``run.py`` in a fresh interpreter per workload, so that set-up
time and peak RSS belong to that workload alone. Modes:

* ``setup``: import consensuslab and compile the workload's scenarios, then
  report the monotonic clock (the parent subtracts its spawn time) and a
  reading of the reference kernel taken right after;
* ``measure``: set up, then run untraced passes for ``--seconds``;
* ``trace``: set up with loading traced, run untraced passes for half of
  ``--seconds``, then traced passes for the other half.

A pass runs every scenario through ``harness._execute`` and checks each
one; the last stdout line is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads


def _compile(workload: str, inputs: Path, harness) -> list:
    if workload == workloads.CATALOG:
        return [harness.load_catalog_scenario(case) for case in harness.catalog()]
    return [harness.load_scenario(str(p)) for p in sorted(inputs.glob("*.json"))]


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Checker:
    """Per-scenario correctness check; remembers ensemble digests across passes."""

    def __init__(self, predicates: dict):
        self.predicates = predicates
        self.digests: dict[str, str] = {}

    def __call__(self, summary, ctx) -> dict:
        sid = summary.scenario_id
        problems = []
        passed, detail = self.predicates[sid](summary, ctx)
        if not passed:
            problems.append(f"{sid}: predicate failed ({detail})")
        if not summary.ok:
            problems.append(f"{sid}: summary.ok is false")
        terminal = []
        if ctx.trajectory is not None:
            terminal.append(ctx.trajectory.terminal)
        if ctx.ensemble is not None:
            terminal.append(ctx.ensemble.terminal_states)
        if not all(np.isfinite(x).all() for x in terminal):
            problems.append(f"{sid}: non-finite terminal state")
        path = summary.outputs.get("ensemble_csv")
        if path is not None:
            digest = _sha256(path)
            if self.digests.setdefault(sid, digest) != digest:
                problems.append(f"{sid}: ensemble.csv digest changed between passes")
        mismatch = (
            ctx.trajectory is not None
            and ctx.ensemble is not None
            and ctx.trajectory.terminal.tobytes() != ctx.ensemble.terminal_states[0].tobytes()
        )
        rows = list(summary.checks) + list(summary.analyses.values())
        return {
            "problems": problems,
            "run0_mismatch": int(mismatch),
            "items_attempted": len(rows),
            "items_failed": sum(1 for row in rows if "error" in row),
        }


def _run_pass(scenarios, out_dir: Path, execute, check) -> dict:
    totals = {"problems": [], "run0_mismatch": 0, "items_attempted": 0, "items_failed": 0}
    for scn in scenarios:
        summary, ctx = execute(scn, out_dir / scn.scenario_id)
        row = check(summary, ctx)
        totals["problems"] += row.pop("problems")
        for key, value in row.items():
            totals[key] += value
    return totals


def reference_seconds() -> float:
    """Wall time of a fixed reference kernel: a reading of the host's current speed.

    The kernel mixes a pure-Python loop, small numpy calls and seeded
    generator set-up, the kinds of work the workloads spend most of their
    time in. It uses nothing from consensuslab, so no change to the library
    can move it; only the host can.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(900_000):
        s += i & 7
    x = np.zeros(3)
    for _ in range(30_000):
        x = x * 0.5 + 1.0
    for key in range(3_000):
        np.random.Generator(np.random.Philox(key=key)).standard_normal(40)
    return time.perf_counter() - t0


def _passes(n_min: int, seconds: float, one_pass) -> list:
    """Run passes until ``seconds`` have elapsed and at least ``n_min`` ran.

    The reference kernel runs before the first pass and after every pass;
    each row's ``reference_s`` is the mean of the two readings around it.
    """
    out = []
    before = reference_seconds()
    deadline = time.perf_counter() + seconds
    while len(out) < n_min or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        try:
            row = one_pass()
        except Exception:  # one broken pass is a failed pass, not a crashed benchmark
            row = {"problems": [traceback.format_exc()], "run0_mismatch": 0,
                   "items_attempted": 0, "items_failed": 0}
        row["seconds"] = time.perf_counter() - t0
        after = reference_seconds()
        row["reference_s"] = 0.5 * (before + after)
        before = after
        out.append(row)
    return out


def _environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--min-passes", type=int, default=1)
    args = p.parse_args(argv)

    import consensuslab
    from consensuslab import harness

    src = Path(args.src).resolve()
    if Path(consensuslab.__file__).resolve().parent != src / "consensuslab":
        print(f"consensuslab imported from {consensuslab.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = patched = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        patched = tracing.Patched(tracer)
        with patched:
            scenarios = _compile(args.workload, Path(args.inputs), harness)
    else:
        scenarios = _compile(args.workload, Path(args.inputs), harness)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "reference_s": reference_seconds()}))
        return 0

    if args.workload == workloads.CATALOG:
        predicates = dict(harness._PREDICATES)
    else:
        predicates = {s.scenario_id: workloads.generated_predicate for s in scenarios}
    check = Checker(predicates)
    out_dir = Path(args.out)
    models = [s for s in scenarios if s.model is not None]
    result = {
        "environment": _environment(),
        "scenarios": [s.scenario_id for s in scenarios],
        "model_scenarios": len(models),
        "agent_steps": sum(s.model.n * s.ensemble * s.horizon for s in models),
    }

    if args.mode == "measure":
        passes = _passes(args.min_passes, args.seconds,
                         lambda: _run_pass(scenarios, out_dir, harness._execute, check))
    else:
        half = args.seconds / 2.0
        passes = _passes(args.min_passes, half,
                         lambda: _run_pass(scenarios, out_dir, harness._execute, check))
        for row in passes:
            row["traced"] = False
        setup_spans = tracer.span_count()
        traced_execute = tracer.wrap("harness.execute", harness._execute)
        traced_check = tracer.wrap("bench.check", check)
        traced_run = tracer.wrap("bench.pass", _run_pass)

        def traced_pass():
            tracer.counts.clear()
            first = tracer.span_count()
            row = traced_run(scenarios, out_dir, traced_execute, traced_check)
            row["counts"] = tracer.counts.copy()
            row["span_range"] = (first, tracer.span_count())
            return row

        with patched:
            traced = _passes(args.min_passes, half, traced_pass)
        for row in traced:
            row["traced"] = True
            if "span_range" in row:
                self_times = tracer.self_times(*row.pop("span_range"))
                row["layers"] = tracing.pass_metrics(self_times, row.pop("counts"), row)
        passes += traced
        result["computed_counts"] = list(tracing.COMPUTED_COUNTS)
        result["load_s"] = tracer.root_seconds("harness.load", 0, setup_spans)
        tracer.save(out_dir / "spans.npz")

    result["passes"] = passes
    result["digests"] = check.digests
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
