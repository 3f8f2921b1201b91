"""Tiny-scale self-test of the benchmark, on the same code path as a full run.

Run from the root of a source checkout (about a minute, mostly the catalog)::

    python3 bench/selftest.py

It runs every workload with ``--scale tiny``, untraced once and traced
twice with the same seed, and checks that

* the last stdout line has exactly ``correct``, ``attempted``, ``failed``
  and ``metrics``, with ``correct`` true and nothing failed;
* every metric BENCHMARK.json declares is present with its unit;
* every count of the traced run repeats exactly in the second traced run,
  and the computed counts are labelled as computed;
* the per-layer self times add up to the traced pass time;
* in a directory holding only BENCHMARK.json and the benchmark's files the
  command exits non-zero without printing a result.

Exits 0 when all of these hold and prints each failed check otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 3
NOT_PASS_TIMES = ("harness.load_s", "trace.pass_s", "trace.overhead_s")
COMPUTED = ("noise.uniforms_drawn", "noise.block_bytes_peak", "dynamics.agent_steps")


def _run(args: list, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def _bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _run(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny"], ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2][len("REPORT "):])
    return json.loads(lines[-1]), report


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []

    def check(ok: bool, msg: str) -> None:
        if not ok:
            errors.append(msg)

    for w in (w["name"] for w in declared["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, report = _bench(w, trace)
            where = f"{w} trace={trace}"
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{where}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{where}: correct={result['correct']} failed={result['failed']} problems={report['problems']}")
            metrics = result["metrics"]
            for m in declared[section]:
                got = metrics.get(m["name"])
                check(got is not None and got["unit"] == m["unit"], f"{where}: metric {m['name']} missing or wrong unit: {got}")
            if trace == 0:
                check(report["pass_s_tail"]["samples"] == result["attempted"], f"{where}: tail sample count")
                continue
            counts = {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "B")}
            again, _ = _bench(w, 1)
            for k, v in counts.items():
                check(isinstance(v, int) and again["metrics"][k]["value"] == v,
                      f"{where}: count {k} did not repeat ({v} then {again['metrics'][k]['value']})")
            for k in COMPUTED:
                check(report["metrics"][k].get("computed") is True, f"{where}: {k} not labelled computed")
            parts = sum(v["value"] for k, v in metrics.items() if v["unit"] == "s" and k not in NOT_PASS_TIMES)
            total = metrics["trace.pass_s"]["value"]
            check(abs(parts - total) <= 1e-9 * total, f"{where}: layer self times sum to {parts}, pass took {total}")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in declared["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "many_runs", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    check(proc.returncode != 0, "bare directory: exit code 0")
    check('"correct"' not in proc.stdout, "bare directory: printed a result")
    shutil.rmtree(bare)

    for msg in errors:
        print("FAIL", msg)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
