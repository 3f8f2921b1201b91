"""consensuslab benchmark: end-to-end and per-layer costs of three workloads.

Run from the root of a source checkout::

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``catalog``: the 13 built-in cases at their pinned seeds, each followed by
  its acceptance predicate;
* ``wide_agents``: one average-family scenario, n=100, m=500, T=500, dense
  random weights from the seed;
* ``many_runs``: one noisy-feedback scenario, n=2, m=50,000, T=20.

A pass runs every scenario of the workload through ``harness._execute`` and
then checks it: the acceptance predicate holds, ``summary.ok`` is true,
every terminal state is finite, and each ``ensemble.csv`` has the same
SHA-256 in every pass of the run. Each workload runs in fresh processes
with BLAS pinned to one thread: ``setup_s`` is the median over several
fresh interpreters of the time from spawn to compiled scenarios, and the
passes run in one more process whose ``ru_maxrss`` is ``peak_rss_mb``.
That process also times a fixed reference kernel around every pass, and
the end-to-end times are scaled by it to one reference host speed, so that
the host's own drift does not read as a change of the program.

With ``--trace 1`` a traced process runs untraced passes for half the time
and traced passes for the other half, and reports the per-layer metrics of
the traced pass with median duration. The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it, prefixed ``REPORT``, is the full document (environment, pass
times, digests, failures), also written to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 9
MIN_PASSES = 11  # the tail percentile needs ten passes beyond it
BLAS_THREADS = 1
DEADLINE_S = 170.0  # whole invocation, per workload
# The host's speed drifts by up to 40% within minutes, and the reference
# kernel (child.reference_seconds) drifts with it. End-to-end times are
# reported in seconds of a host on which that kernel takes REFERENCE_S.
REFERENCE_S = 0.15


class BenchError(Exception):
    """The benchmark could not measure, as opposed to measuring a failure."""


def declared_metrics() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics declared in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def tail(values: list) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least ten samples above it.

    Returns (value, percentile, samples beyond). With fewer than eleven
    samples no percentile qualifies and the minimum is returned.
    """
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def _git_sha():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _child(mode: str, workload: str, work: Path, deadline: float, seconds: float = 0.0,
           min_passes: int = 1) -> tuple[dict, float]:
    """Run one fresh child process; return its JSON result and its spawn time."""
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"), "--mode", mode, "--workload", workload,
        "--src", str(SRC), "--inputs", str(work / "inputs"), "--out", str(work / "artifacts"),
        "--seconds", repr(seconds), "--min-passes", str(min_passes),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the {mode} process")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        # stderr is inherited, so library warnings stay visible
        proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{workload}: {mode} process exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: {mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1]), spawned


def _environment(seed: int, load_avg: tuple, child: dict) -> dict:
    nproc = os.cpu_count()
    if BLAS_THREADS > nproc:
        raise BenchError(f"BLAS thread count {BLAS_THREADS} exceeds nproc {nproc}")
    return {
        "nproc": nproc,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **child,
        "git_sha": _git_sha(),
        "seed": seed,
        "load_avg_start": list(load_avg),
        "blas_threads": BLAS_THREADS,
    }


def _end_to_end(result: dict, setup_samples: list) -> tuple[dict, dict]:
    """End-to-end metrics, with every time scaled to the reference host speed.

    Each set-up and each pass time is multiplied by ``REFERENCE_S`` over the
    reference kernel's time in the same process, taken next to it.
    ``setup_samples`` holds (wall seconds, reference seconds) pairs. The
    wall times go into the report unscaled.
    """
    passes = result["passes"]
    wall = [p["seconds"] for p in passes]
    seconds = [p["seconds"] * REFERENCE_S / p["reference_s"] for p in passes]
    setup = [s * REFERENCE_S / ref for s, ref in setup_samples]
    p50 = statistics.median(seconds)
    tail_s, tail_pct, beyond = tail(seconds)
    failed = sum(1 for p in passes if p["problems"])
    values = {
        "setup_s": statistics.median(setup),
        "pass_s_p50": p50,
        "pass_s_tail": tail_s,
        "agent_steps_per_s": result["agent_steps"] / p50,
        "peak_rss_mb": result["maxrss_mb"],
        "pass_ok_frac": 1.0 - failed / len(seconds),
    }
    detail = {
        "setup_seconds": setup,
        "pass_seconds": seconds,
        "wall_setup_seconds": [s for s, _ in setup_samples],
        "wall_pass_seconds": wall,
        "reference_seconds": {"setup": [ref for _, ref in setup_samples],
                              "passes": [p["reference_s"] for p in passes]},
        "wall_setup_s": statistics.median(s for s, _ in setup_samples),
        "wall_pass_s_p50": statistics.median(wall),
        "pass_s_tail": {"percentile": tail_pct, "samples": len(seconds), "beyond": beyond},
        "failed_frac": failed / len(seconds),
        "agent_steps_per_pass": result["agent_steps"],
    }
    return values, detail


def _per_layer(result: dict) -> tuple[dict, dict, list]:
    """Metrics of the traced pass with median duration, plus count consistency problems."""
    untraced = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if "layers" in p]
    if not traced or not untraced:
        raise BenchError("the traced run completed no pass")
    median_pass = sorted(traced, key=lambda p: p["seconds"])[(len(traced) - 1) // 2]
    values = dict(median_pass["layers"])
    values["harness.load_s"] = result["load_s"]
    values["trace.overhead_s"] = (statistics.median(p["seconds"] for p in traced)
                                  - statistics.median(p["seconds"] for p in untraced))
    problems = []
    for key, value in values.items():
        if isinstance(value, int) and any(p["layers"][key] != value for p in traced):
            problems.append(f"count {key} differs between traced passes")
    detail = {
        "untraced_pass_seconds": [p["seconds"] for p in untraced],
        "traced_pass_seconds": [p["seconds"] for p in traced],
        "computed_counts": result["computed_counts"],
    }
    return values, detail, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """Measure one workload in fresh processes; return the full report."""
    deadline = time.monotonic() + DEADLINE_S
    load_avg = os.getloadavg()
    work = OUT / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    for doc in workloads.generate(workload, seed, scale):
        (work / "inputs" / f"{doc['id']}.json").write_text(json.dumps(doc))
    min_passes = MIN_PASSES if scale == "full" else 2
    e2e_units, layer_units = declared_metrics()

    if trace:
        result, _ = _child("trace", workload, work, deadline, seconds, max(min_passes // 2, 1))
        values, detail, problems = _per_layer(result)
        units = layer_units
    else:
        setup_samples = []
        for _ in range(SETUP_SAMPLES):
            ready, spawned = _child("setup", workload, work, deadline)
            setup_samples.append((ready["ready"] - spawned, ready["reference_s"]))
        result, _ = _child("measure", workload, work, deadline, seconds, min_passes)
        values, detail = _end_to_end(result, setup_samples)
        problems = []
        units = e2e_units
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"{workload}: no value for declared metrics {sorted(missing)}")

    failed = sum(1 for p in result["passes"] if p["problems"])
    problems += [msg for p in result["passes"] for msg in p["problems"]][:20]
    computed = set(detail.get("computed_counts", ()))
    report = {
        "workload": workload,
        "scale": scale,
        "trace": trace,
        "environment": _environment(seed, load_avg, result["environment"]),
        "scenarios": result["scenarios"],
        "model_scenarios": result["model_scenarios"],
        "digests": result["digests"],
        "attempted": len(result["passes"]),
        "failed": failed,
        "problems": problems,
        "metrics": {
            name: {"value": values[name], "unit": units[name], **({"computed": True} if name in computed else {})}
            for name in units
        },
        **detail,
    }
    (work / "report.json").write_text(json.dumps(report, indent=1))
    return report


def _print_table(report: dict) -> None:
    w = report["workload"]
    for name, m in report["metrics"].items():
        label = " (computed)" if m.get("computed") else ""
        print(f"{w:12s} {name:26s} {m['value']:>14.6g} {m['unit']}{label}")
    if "failed_frac" in report:
        print(f"{w:12s} {'failed_frac':26s} {report['failed_frac']:>14.6g} ratio")
    for msg in report["problems"]:
        print(f"{w:12s} FAILED: {msg.strip()}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks the generated workloads for the self-test")
    args = p.parse_args(argv)

    if not (SRC / "consensuslab" / "__init__.py").is_file():
        print(f"no consensuslab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    try:
        for name in names:
            report = run_workload(name, args.seed, args.seconds, bool(args.trace), args.scale)
            _print_table(report)
            reports.append(report)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    def metrics(report, prefix):
        return {prefix + k: {"value": m["value"], "unit": m["unit"]} for k, m in report["metrics"].items()}

    single = len(reports) == 1
    doc = {
        "correct": all(not r["problems"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {k: v for r in reports for k, v in metrics(r, "" if single else r["workload"] + ".").items()},
    }
    print("REPORT " + json.dumps(reports[0] if single else reports))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
