"""Benchmark workloads: generated scenario documents and per-workload checks.

Generation uses only the standard library so the orchestrating process stays
light; the same ``--seed`` always gives the same documents. The catalog
workload has no generated inputs: it runs the 13 built-in cases at their
pinned seeds, because their acceptance predicates are pinned to them.
"""

from __future__ import annotations

import random

CATALOG = "catalog"
WIDE_AGENTS = "wide_agents"
MANY_RUNS = "many_runs"
WORKLOADS = (CATALOG, WIDE_AGENTS, MANY_RUNS)

# (n, m, T) per workload and scale. "full" is what BENCHMARK.json measures;
# "tiny" exists only for the benchmark's self-test, on the same code path.
SIZES = {
    WIDE_AGENTS: {"full": (100, 500, 500), "tiny": (12, 60, 300)},
    MANY_RUNS: {"full": (2, 50_000, 20), "tiny": (2, 10_000, 20)},
}

# Loose physical invariants of the generated workloads. Both held with wide
# margins on every seed tried (rank-one scores and drifts both sit near 0.01
# at full scale), so a failure means the program changed, not bad luck.
RANK_ONE_MAX = 0.05
DRIFT_MAX = 0.05


def _dense_stochastic(rng: random.Random, n: int, self_lo: float, self_hi: float) -> list:
    """Row-stochastic matrix with every entry positive and a heavy diagonal."""
    rows = []
    for i in range(n):
        d = rng.uniform(self_lo, self_hi)
        off = [rng.random() + 0.01 for _ in range(n - 1)]
        s = sum(off)
        row = [x * (1.0 - d) / s for x in off]
        row.insert(i, d)
        rows.append(row)
    return rows


def _wide_agents(rng: random.Random, scale: str) -> dict:
    n, m, T = SIZES[WIDE_AGENTS][scale]
    A = _dense_stochastic(rng, n, 0.3, 0.6)
    # strictly inside the average-family window 0 < eps_i < n/(n-1) a_ii
    eps = [rng.uniform(0.2, 0.8) * A[i][i] for i in range(n)]
    return {
        "schema_version": 1,
        "id": WIDE_AGENTS,
        "description": "dense mean-feedback network under identity-covariance Gaussian noise",
        "model": {
            "family": "average",
            "n": n,
            "A": {"kind": "constant", "matrix": A},
            "E": {"kind": "constant", "eps": eps},
            "noise": {
                "kind": "gaussian",
                "mu": [0.0] * n,
                "sigma": [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)],
            },
            "x0": [0.0] * n,
        },
        "horizon": T,
        "ensemble": m,
        "master_seed": rng.randrange(2**31),
        "checks": [{"name": "average_rates", "strict": True}],
        "analyses": [{"name": "rank_one"}, {"name": "moments"}],
    }


def _many_runs(rng: random.Random, scale: str) -> dict:
    n, m, T = SIZES[MANY_RUNS][scale]
    A = _dense_stochastic(rng, n, 0.5, 0.9)
    # well inside the target-feedback window 0 < eps_i < 2 a_ii, so the
    # contraction factor is at most 0.65 and the law settles well before T/2
    eps = [rng.uniform(0.7, 1.3) * A[i][i] for i in range(n)]
    return {
        "schema_version": 1,
        "id": MANY_RUNS,
        "description": "two agents, many short runs under persistent Gaussian feedback noise",
        "model": {
            "family": "noisy_feedback",
            "n": n,
            "A": {"kind": "constant", "matrix": A},
            "E": {"kind": "constant", "eps": eps},
            "sigma_bar": 1.0,
            "noise": {"kind": "gaussian", "mu": [0.0] * n, "sigma": [[1.0, 0.0], [0.0, 1.0]]},
            "x0": [0.0] * n,
        },
        "horizon": T,
        "ensemble": m,
        "master_seed": rng.randrange(2**31),
        "checks": [{"name": "base_rates"}],
        "analyses": [
            {"name": "drift", "times": [T // 2, T]},
            {"name": "ks_best_fit_normal"},
            {"name": "moments"},
        ],
    }


def generate(workload: str, seed: int, scale: str) -> list:
    """Scenario documents of a generated workload; empty for the catalog."""
    rng = random.Random(seed)
    if workload == CATALOG:
        return []
    if workload == WIDE_AGENTS:
        return [_wide_agents(rng, scale)]
    if workload == MANY_RUNS:
        return [_many_runs(rng, scale)]
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def _check_satisfied(summary, name: str) -> bool:
    return any(row.get("name") == name and row.get("satisfied") for row in summary.checks)


def generated_predicate(summary, ctx) -> tuple[bool, str]:
    """Acceptance predicate of a generated scenario, in the catalog's style."""
    if summary.scenario_id == WIDE_AGENTS:
        score = summary.analyses.get("rank_one", {}).get("score")
        ok = _check_satisfied(summary, "average_rates") and score is not None and score < RANK_ONE_MAX
        return ok, f"rank_one_score={score}"
    drift = summary.analyses.get("drift", {}).get("max_distance")
    ok = _check_satisfied(summary, "base_rates") and drift is not None and drift < DRIFT_MAX
    return ok, f"drift={drift}"
