"""Command-line front end.

Subcommands: ``run`` a scenario (file or catalog id), ``check`` only its
hypothesis conditions, ``reproduce`` a catalog case and gate on the
expectations its manifest entry lists, ``list`` the catalog, and ``stats``
to re-analyze a saved ensemble CSV. Exit codes: 0 success, 1 assertion or
check failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import harness
from .errors import ConsensusLabError
from .stats import empirical_moments, rank_one_score


def _parse_overrides(pairs):
    out = {}
    for p in pairs or []:
        key, sep, value = p.partition("=")
        if not sep:
            raise ValueError(f"override must look like name.param=value, got {p!r}")
        out[key] = json.loads(value)
    return out


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--horizon", type=int, default=None, help="override the horizon T")
    p.add_argument("--out-dir", default=None, help="directory for CSV/JSON artifacts")
    p.add_argument("--tol", action="append", metavar="NAME.PARAM=VALUE",
                   help="override a check/analysis parameter, e.g. consensus_time.tol=1e-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="consensuslab",
                                     description="simulate and verify consensus-learning dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file or catalog id")
    p_run.add_argument("scenario", help="path to scenario JSON, or a catalog id")
    _add_common(p_run)
    p_run.add_argument("--ensemble", type=int, default=None, help="override the ensemble size m")

    p_check = sub.add_parser("check", help="evaluate only the scenario's condition checks")
    p_check.add_argument("scenario", help="path to scenario JSON, or a catalog id")
    _add_common(p_check)
    p_check.set_defaults(ensemble=1)  # one run: the checks read the model, not the ensemble

    p_rep = sub.add_parser("reproduce", help="run a catalog case and check its expectations")
    p_rep.add_argument("case_id", help="catalog id (see `list`)")
    p_rep.add_argument("--out-dir", default=None)

    sub.add_parser("list", help="list catalog cases")

    p_stats = sub.add_parser("stats", help="re-analyze a saved ensemble CSV")
    p_stats.add_argument("csv_path", help="ensemble CSV written by `run`")

    args = parser.parse_args(argv)

    try:
        if args.command == "list":
            for case_id in harness.catalog():
                print(f"{case_id:20s} {harness.catalog_description(case_id)}")
            return 0

        if args.command in ("run", "check"):
            scenario = (harness.load_catalog_scenario(args.scenario) if args.scenario in harness.catalog()
                        else harness.load_scenario(args.scenario))
            if args.command == "check":
                scenario.analyses = []
            summary = harness.run_scenario(scenario, out_dir=args.out_dir, horizon=args.horizon,
                                           ensemble=args.ensemble, master_seed=args.seed,
                                           overrides=_parse_overrides(args.tol))
            if args.command == "run":
                print(json.dumps(summary.to_json(), indent=2))
                return 0 if summary.ok else 1
            print(json.dumps({"checks": summary.checks}, indent=2))
            return 0 if summary.ok and all(row.get("satisfied") for row in summary.checks) else 1

        if args.command == "reproduce":
            summary, passed, detail = harness.reproduce(args.case_id, out_dir=args.out_dir)
            print(f"{args.case_id}: {'PASS' if passed else 'FAIL'} ({detail})")
            return 0 if passed else 1

        if args.command == "stats":
            path = Path(args.csv_path)
            if not path.exists():
                print(f"no such file: {path}", file=sys.stderr)
                return 2
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            if len(rows) < 2:
                raise ValueError(f"{path}: expected a header and at least one row")
            header, body = rows[0], rows[1:]
            comps = [j for j, name in enumerate(header) if name.startswith("component_")]
            if not comps:
                raise ValueError(f"{path}: no component_ column")
            pts = np.empty((len(body), len(comps)))
            for line, r in enumerate(body, 2):
                if len(r) != len(header):
                    raise ValueError(f"{path}:{line}: {len(r)} fields where the header has {len(header)}")
                for k, j in enumerate(comps):
                    try:
                        pts[line - 2, k] = float(r[j])
                    except ValueError:
                        raise ValueError(f"{path}:{line}: {header[j]} is {r[j]!r}, not a number") from None
            bad = np.argwhere(~np.isfinite(pts))  # a diverged run's values: no statistic holds
            if bad.size:
                i, j = bad[0].tolist()
                raise ValueError(f"{path}:{i + 2}: {header[comps[j]]} is {float(pts[i, j])!r}, not finite")
            mean, cov = empirical_moments(pts)
            report = {
                "rows": pts.shape[0],
                "components": pts.shape[1],
                "mean": mean.tolist(),
                "cov": cov.tolist(),
                "rank_one_score": rank_one_score(cov) if pts.shape[1] > 1 else 0.0,
                "quantiles": {
                    q: np.quantile(pts, float(q), axis=0).tolist() for q in ("0.05", "0.25", "0.5", "0.75", "0.95")
                },
            }
            print(json.dumps(report, indent=2))
            return 0

    except ConsensusLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
