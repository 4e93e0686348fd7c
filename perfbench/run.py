#!/usr/bin/env python3
"""Layered end-to-end benchmark of the hausnum CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables_cold --seed 1 --seconds 30 --trace 0

With ``--trace 0`` one closed-loop client (one request in flight) runs the
workload's seeded invocations of ``python -m hausnum`` in full passes until
the next pass would overrun ``--seconds``, checks every output, and reports
the end-to-end metrics.  With ``--trace 1`` it instead times calls into each
module's public functions in-process (see layers.py) and reports per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import client as client_mod
import mixes

SETUP_REPEATS = 3
# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest ladder percentile with TAIL_BEYOND samples above its rank, else the max."""
    values = sorted(latencies)
    for pct in TAIL_LADDER:
        if len(values) - math.ceil(pct / 100 * len(values)) >= TAIL_BEYOND:
            return nearest_rank(values, pct), f"p{pct:g}"
    return values[-1], "max"


def setup(workload: str, seed: int, base: Path, client) -> tuple[float, list]:
    """Generate the inputs, warm the .pyc files and fill caches; return the median time.

    Repeated SETUP_REPEATS times, each in a fresh directory; the last one is used.
    """
    times = []
    for i in range(SETUP_REPEATS):
        work = base / f"setup{i}"
        work.mkdir()
        start = time.perf_counter()
        warm = client.python(["-c", "import hausnum.cli"])
        if warm.returncode != 0:
            raise RuntimeError(f"import hausnum.cli failed:\n{warm.stderr}")
        invocations = mixes.WORKLOADS[workload](random.Random(seed), work, client)
        times.append(time.perf_counter() - start)
    return statistics.median(times), invocations


def invoke(inv, client, work: Path) -> tuple:
    """Run one invocation, with a new empty cache if it asks for one; return the
    result and a description of what is wrong with it, or None."""
    argv = list(inv.argv)
    cache = None
    if inv.fresh_cache:
        cache = tempfile.mkdtemp(dir=work)
        argv += ["--cache-dir", cache]
    result = client.hausnum(argv)
    if cache:
        shutil.rmtree(cache)
    problem = inv.problem(result.returncode, result.stdout)
    if problem:
        problem = f"{inv.kind}: {problem} {result.stderr.strip()[-300:]}"
    return result, problem


def run_loop(invocations: list, seconds: float, client, work: Path) -> dict:
    """Full passes over the mix until another pass would overrun ``seconds``."""
    latencies, by_kind, pass_times, failures = [], {}, [], []
    rss = 0.0
    tabulated = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for inv in invocations:
            result, problem = invoke(inv, client, work)
            if problem:
                failures.append(problem)
            else:
                tabulated += inv.tabulated
            latencies.append(result.seconds)
            by_kind.setdefault(inv.kind, []).append(result.seconds)
            rss = max(rss, result.max_rss_mb)
        pass_times.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(pass_times) > seconds:
            break
    return {"latencies": latencies, "by_kind": by_kind, "pass_times": pass_times,
            "elapsed": elapsed, "failures": failures, "rss": rss, "tabulated": tabulated}


def run_once(invocations: list, client, work: Path) -> tuple[dict, list]:
    """Each invocation once, untimed by the loop; returns seconds by kind and failures."""
    seconds, failures = {}, []
    for inv in invocations:
        result, problem = invoke(inv, client, work)
        if problem:
            failures.append(problem)
        seconds[inv.kind] = result.seconds
    return seconds, failures


def end_to_end(loop: dict, setup_s: float) -> tuple[dict, dict]:
    """The gated metrics, and the extra per-workload figures for the report."""
    lat = loop["latencies"]
    tail_value, tail_pct = tail(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(loop["pass_times"]), "s"),
        "ops_per_s": (len(lat) / loop["elapsed"], "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "peak_rss_mb": (loop["rss"], "MB"),
    }
    # Reported, not gated: one order statistic, which on spaces_large spread
    # by more than the largest allowed bound over ten runs of the same code.
    extra = {
        "latency_tail_s": {"value": tail_value, "unit": "s"},
        "latency_tail_percentile": tail_pct,
        "samples": len(lat),
        "passes": len(loop["pass_times"]),
        "median_s_by_kind": {k: statistics.median(v) for k, v in sorted(loop["by_kind"].items())},
    }
    if loop["tabulated"]:
        extra["topologies_per_s"] = loop["tabulated"] / loop["elapsed"]
    return metrics, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(mixes.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "hausnum" / "__init__.py").is_file():
        print(f"error: {root} holds no src/hausnum; run from the root of a checkout",
              file=sys.stderr)
        return 2

    work_root = root / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        client = client_mod.Client(root, work)
        meta = client_mod.metadata(root, client, args.seed, bool(args.trace))
        meta["workload"] = args.workload
        if args.trace:
            import layers
            metrics, extra, outcomes = layers.run(root, work, client, args.seed)
            attempted, failures = outcomes.attempted, outcomes.failures
        else:
            setup_s, invocations = setup(args.workload, args.seed, work, client)
            random.Random(args.seed).shuffle(invocations)
            loop = run_loop(invocations, args.seconds, client, work)
            once, once_failures = run_once(mixes.ONCE_AFTER.get(args.workload, []),
                                           client, work)
            metrics, extra = end_to_end(loop, setup_s)
            if once:
                extra["once_after_loop_s"] = once
            if "enumerate 6 --format json" in once:
                extra["enum6_s"] = once["enumerate 6 --format json"]
            attempted = len(loop["latencies"]) + len(once)
            failures = loop["failures"] + once_failures
            extra["failed_ratio"] = len(failures) / attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it

    for line in failures[:20]:
        print(f"FAILED {line}")
    report = {"metadata": meta, "extra": extra,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
