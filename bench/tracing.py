"""Span recording around calls into consensuslab's modules, from outside.

Nothing under ``src/`` changes. The tracer replaces module attributes at the
call sites with wrappers that record a span (name, parent, start, end) and,
for a few layers, a count. ``dynamics`` and ``harness`` import their
collaborators by name, so those names are replaced in the importing module;
``harness`` reaches ``stats`` and ``conditions`` through the module objects,
so their own attributes are replaced. Spans stay in flat in-memory arrays
and are aggregated and written once the run ends.

A span's self time is its duration minus the durations of its direct
children. Calls nest strictly on one thread, so the self times of a pass's
spans add up exactly to the pass's duration.
"""

from __future__ import annotations

import inspect
import math
import os
import time
from array import array
from collections import Counter

import numpy as np

from consensuslab import conditions, dynamics, harness, matrices, stats

# Span name -> reported layer metric (seconds of self time).
LAYER_OF = {
    "bench.pass": "bench.self_s",
    "bench.check": "bench.self_s",
    "harness.execute": "harness.self_s",
    "harness.write": "harness.write_s",
    "harness.load": "harness.load_s",
    "dynamics.engine": "dynamics.engine_self_s",
    "noise.substream": "noise.substream_s",
    "noise.block": "noise.block_s",
    "matrices.product_limit": "matrices.product_limit_s",
    "matrices.other": "matrices.self_s",
    "stats.rank_one": "stats.rank_one_s",
    "stats.sort": "stats.sort_s",
    "stats.other": "stats.self_s",
    "conditions.check": "conditions.self_s",
    "conditions.other": "conditions.self_s",
}
PASS_LAYERS = sorted(set(LAYER_OF.values()) - {"harness.load_s"})

# Counts the wrappers accumulate. The first three are derived from call
# arguments rather than observed, and are labelled "computed" in the report.
COMPUTED_COUNTS = ("noise.uniforms_drawn", "noise.block_bytes_peak", "dynamics.agent_steps")
WRAPPER_COUNTS = COMPUTED_COUNTS + ("dynamics.engine_calls", "conditions.check_calls", "harness.bytes_written")


class Tracer:
    """In-memory span store plus per-pass counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span_name: str, fn, count=None):
        """Return ``fn`` recording one span per call; ``count(counts, args, kwargs)`` runs after it."""
        nid = self._name_id(span_name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(math.nan)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def span_count(self) -> int:
        return len(self.name)

    def self_times(self, first: int, last: int) -> dict:
        """Self time per span name and call count per span name over spans [first, last)."""
        nid = np.frombuffer(self.name, dtype=np.int32)[first:last]
        par = np.frombuffer(self.parent, dtype=np.int64)[first:last]
        dur = (np.frombuffer(self.end)[first:last] - np.frombuffer(self.start)[first:last])
        inside = par >= first
        child = np.zeros(last - first)
        np.add.at(child, par[inside] - first, dur[inside])
        own = np.bincount(nid, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(nid, minlength=len(self.names))
        return {
            name: (float(own[i]), int(calls[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def root_seconds(self, span_name: str, first: int, last: int) -> float:
        """Total duration of top-level spans named ``span_name`` among spans [first, last)."""
        nid = self._ids.get(span_name)
        return sum(
            self.end[i] - self.start[i]
            for i in range(first, last)
            if self.name[i] == nid and self.parent[i] < first
        )

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def pass_metrics(self_times: dict, counts: Counter, checked: dict) -> dict:
    """Per-layer metrics of one traced pass.

    ``self_times`` comes from ``Tracer.self_times`` over the pass's spans,
    ``counts`` from the wrappers, and ``checked`` from the benchmark's own
    per-scenario checks (run-0 mismatches and harness item rows).
    """
    out = {name: 0.0 for name in PASS_LAYERS}
    for span, (own, _calls) in self_times.items():
        out[LAYER_OF[span]] += own
    out["trace.pass_s"] = sum(own for own, _calls in self_times.values())
    out["noise.substream_calls"] = self_times.get("noise.substream", (0.0, 0))[1]
    out["noise.block_calls"] = self_times.get("noise.block", (0.0, 0))[1]
    for key in WRAPPER_COUNTS:
        out[key] = counts.get(key, 0)
    out["dynamics.run0_mismatch"] = checked["run0_mismatch"]
    out["harness.items_failed"] = checked["items_failed"]
    out["harness.items_attempted"] = checked["items_attempted"]
    return out


def _public_functions(module) -> dict:
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


def _count_block(counts, args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    T = args[1] if len(args) > 1 else kwargs["T"]
    if spec.is_random:
        counts["noise.uniforms_drawn"] += T * spec.n


def _engine_counter(fn, ensemble: bool):
    sig = inspect.signature(fn)

    def count(counts, args, kwargs):
        a = sig.bind(*args, **kwargs).arguments
        spec, T = a["spec"], a["T"]
        m = a["m"] if ensemble else 1
        counts["dynamics.engine_calls"] += 1
        counts["dynamics.agent_steps"] += spec.n * m * T
        # _run_engine pre-draws a (T, n, m) block for random noise, (T, n) otherwise
        block = 8 * T * spec.n * (m if spec.noise.is_random else 1)
        counts["noise.block_bytes_peak"] = max(counts["noise.block_bytes_peak"], block)

    return count


def _count_write(counts, args, kwargs):
    path = args[0] if args else kwargs["path"]
    counts["harness.bytes_written"] += os.path.getsize(path)


def _count_check(counts, args, kwargs):
    counts["conditions.check_calls"] += 1


def _matrices_span(name: str) -> str:
    return "matrices.product_limit" if name == "product_limit" else "matrices.other"


def _stats_span(name: str) -> str:
    if name == "rank_one_score":
        return "stats.rank_one"
    if name in ("ks_statistic", "wasserstein1_1d"):
        return "stats.sort"
    return "stats.other"


def _patch_plan(tracer: Tracer) -> list:
    """(owner, attribute, wrapper) for every call site the benchmark traces."""
    plan = [
        (dynamics, "substream", tracer.wrap("noise.substream", dynamics.substream)),
        (dynamics, "sample_noise_block",
         tracer.wrap("noise.block", dynamics.sample_noise_block, _count_block)),
        (harness, "simulate",
         tracer.wrap("dynamics.engine", harness.simulate, _engine_counter(harness.simulate, False))),
        (harness, "simulate_ensemble",
         tracer.wrap("dynamics.engine", harness.simulate_ensemble,
                     _engine_counter(harness.simulate_ensemble, True))),
        (harness, "write_trajectory_csv",
         tracer.wrap("harness.write", harness.write_trajectory_csv, _count_write)),
        (harness, "write_ensemble_csv",
         tracer.wrap("harness.write", harness.write_ensemble_csv, _count_write)),
        (harness, "load_scenario", tracer.wrap("harness.load", harness.load_scenario)),
        (harness, "load_catalog_scenario", tracer.wrap("harness.load", harness.load_catalog_scenario)),
    ]
    matrix_fns = _public_functions(matrices)
    for owner in (dynamics, harness, conditions, stats):
        for name, fn in matrix_fns.items():
            if vars(owner).get(name) is fn:
                plan.append((owner, name, tracer.wrap(_matrices_span(name), fn)))
    for name, fn in _public_functions(stats).items():
        plan.append((stats, name, tracer.wrap(_stats_span(name), fn)))
    for name, fn in _public_functions(conditions).items():
        if name.startswith("check_"):
            plan.append((conditions, name, tracer.wrap("conditions.check", fn, _count_check)))
        else:
            plan.append((conditions, name, tracer.wrap("conditions.other", fn)))
    return plan


class Patched:
    """Context manager installing the tracer's wrappers and restoring the originals."""

    def __init__(self, tracer: Tracer):
        self._plan = _patch_plan(tracer)

    def __enter__(self):
        for owner, attr, wrapper in self._plan:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, wrapper in self._plan:
            setattr(owner, attr, wrapper.__wrapped__)
        return False
