"""The traced run: per-layer timings from spans around calls into hausnum's modules.

Spans are recorded from the benchmark's own code: public functions of the
package are swapped for timing wrappers in every ``hausnum.*`` namespace that
holds them, and the enumeration calls are timed directly.  The end-to-end
runs never load this module, so they carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import random
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import gen
import mixes

# name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "cli.process_start_s": ("s", "lower", "latency_p50_s, ops_per_s on queries_warm"),
    "cli.import_s": ("s", "lower", "latency_p50_s, ops_per_s on queries_warm"),
    "cli.main_s": ("s", "lower", "latency_p50_s, ops_per_s on queries_warm"),
    "jsonio.load_s": ("s", "lower", "latency_p50_s on queries_warm and spaces_large"),
    "jsonio.dumps_s": ("s", "lower", "latency_p50_s on queries_warm and spaces_large"),
    "core.validate_s": ("s", "lower", "latency_p50_s, latency_tail_s on spaces_large"),
    "core.subbasis_s": ("s", "lower", "latency_p50_s, latency_tail_s on spaces_large"),
    "core.opens_total": ("count", "lower", "latency_p50_s, latency_tail_s on spaces_large"),
    "separation.axioms_s": ("s", "lower", "latency_p50_s, latency_tail_s on spaces_large"),
    "separation.hnumber_s": ("s", "lower", "latency_p50_s, latency_tail_s on spaces_large"),
    "constructions.build_s": ("s", "lower", "latency_p50_s, latency_tail_s on spaces_large"),
    "separation.oracle_s": ("s", "lower", "latency_p50_s on queries_warm (predicted negligible)"),
    "symbolic.query_s": ("s", "lower", "latency_p50_s on queries_warm (predicted negligible)"),
    "enumeration.preorders_s": ("s", "lower", "wall_s, latency_p50_s on tables_cold"),
    "enumeration.preorders_count": ("count", "lower", "wall_s, latency_p50_s on tables_cold"),
    "enumeration.labeled_counts_s": ("s", "lower", "wall_s, latency_p50_s on tables_cold"),
    "enumeration.table_s": ("s", "lower", "enum6_s, topologies_per_s, wall_s on tables_cold"),
    "enumeration.table_t0_s": ("s", "lower", "topologies_per_s, wall_s on tables_cold"),
    "enumeration.canonical_self_s": ("s", "lower", "enum6_s, wall_s on tables_cold"),
    "enumeration.canonical_form_us": ("us", "lower", "enum6_s, wall_s on tables_cold"),
    "enumeration.table_jobs2_s": ("s", "lower", "topologies_per_s, wall_s on tables_cold"),
    "enumeration.pool_speedup": ("x", "higher", "topologies_per_s, wall_s on tables_cold"),
    "enumeration.cache_hit_s": ("s", "lower", "latency_p50_s on queries_warm"),
    "trace.overhead_pct": ("%", "lower", "none: traced over untraced in-process query mix"),
}

# Wrapped functions: span name -> (module, attribute).  A wrapper replaces the
# function in every hausnum namespace that imported it, so calls between
# modules are timed too.
TRACED = {
    "cli.main": ("cli", "main"),
    "jsonio.load": ("jsonio", "load_topology"),
    "jsonio.dumps": ("jsonio", "dumps_canonical"),
    "core.validate": ("core", "validate_topology"),
    "core.subbasis": ("core", "generate_from_subbasis"),
    "separation.axioms": ("separation", "axioms_report"),
    "separation.hnumber": ("separation", "hausdorff_number"),
    "separation.oracle": ("separation", "hausdorff_number_oracle"),
    "constructions.build": ("constructions", "build_example"),
    "symbolic.separable": ("symbolic", "separable"),
    "symbolic.hnumber": ("symbolic", "hausdorff_number_symbolic"),
    "symbolic.t1": ("symbolic", "t1_status"),
}
OPEN_COUNTING = {"core.validate", "core.subbasis"}

CANONICAL_SAMPLE = 300
CACHE_HITS = 20
PROCESS_REPEATS = 5
OVERHEAD_PAIRS = 3
TABLE_N = 6

IMPORT_TIMER = ("import time; t = time.perf_counter(); import hausnum.cli; "
                "print(time.perf_counter() - t)")


class Outcomes:
    """Checks attempted and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, problem: "str | None") -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{label}: {problem}")


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, request index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        request = index if parent is None else self.spans[parent][4]
        self.spans.append([name, time.perf_counter(), None, parent, request])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name in OPEN_COUNTING:
                self.counts["opens"] += len(result.opens)
            return result
        return traced

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, *names: str) -> float:
        return sum(sum(self.durations(name)) for name in names)

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, summed per name."""
        own = Counter()
        for name, start, end, parent, _ in self.spans:
            own[name] += end - start
            if parent is not None:
                own[self.spans[parent][0]] -= end - start
        return dict(own)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    modules = [m for name, m in list(sys.modules.items())
               if name == "hausnum" or name.startswith("hausnum.")]
    patched = []
    for span_name, (module, attr) in TRACED.items():
        original = getattr(sys.modules[f"hausnum.{module}"], attr)
        wrapper = tracer.wrap(span_name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched.append((mod, key, original))
    try:
        yield
    finally:
        for mod, key, original in patched:
            setattr(mod, key, original)


def run_in_process(invocations: list, outcomes: Outcomes) -> float:
    """One pass of a mix through ``hausnum.cli.main``; returns its wall time."""
    from hausnum import cli

    start = time.perf_counter()
    for inv in invocations:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(list(inv.argv))
        except Exception as exc:  # noqa: BLE001 - record it and keep measuring
            outcomes.record(f"in-process {inv.kind}", f"{type(exc).__name__}: {exc}")
            continue
        outcomes.record(f"in-process {inv.kind}", inv.problem(code, out.getvalue()))
    return time.perf_counter() - start


def enumeration_layers(tracer: Tracer, work: Path, seed: int, outcomes: Outcomes) -> dict:
    from hausnum import core, enumeration

    expect = outcomes.record
    rng = random.Random(seed)
    picks = set(rng.sample(range(gen.LABELED[TABLE_N]), CANONICAL_SAMPLE))
    sample = []
    count = 0
    with tracer.span("enumeration.preorders"):
        for preorder in enumeration.enumerate_preorders(TABLE_N):
            if count in picks:
                sample.append(preorder)
            count += 1
    expect("enumerate_preorders", None if count == gen.LABELED[TABLE_N]
           else f"{count} preorders, expected {gen.LABELED[TABLE_N]}")

    with tracer.span("enumeration.labeled_counts"):
        counts = enumeration.labeled_and_t0_counts(TABLE_N)
    want = (gen.LABELED[TABLE_N], gen.T0_LABELED[TABLE_N])
    expect("labeled_and_t0_counts", None if counts == want else f"{counts}, expected {want}")

    for span_name, kwargs in (("enumeration.table", {}),
                              ("enumeration.table_t0", {"t0_only": True}),
                              ("enumeration.table_jobs2", {"jobs": mixes.JOBS})):
        with tracer.span(span_name):
            table = enumeration.count_by_hausdorff(TABLE_N, use_cache=False, **kwargs)
        expect(span_name, gen.check_table(table.to_dict(), TABLE_N,
                                          kwargs.get("t0_only", False)))

    topologies = [core.topology_from_preorder(p) for p in sample]
    forms = []
    for topology in topologies:
        with tracer.span("enumeration.canonical_form"):
            forms.append(enumeration.canonical_form(topology))
    # Relabelling a topology must not change its canonical form.
    for topology, form in zip(topologies[:20], forms):
        perm = rng.sample(range(TABLE_N), TABLE_N)
        relabeled = core.validate_topology(
            TABLE_N, [[perm[p] for p in u] for u in topology.opens])
        expect("canonical_form", None if enumeration.canonical_form(relabeled) == form
               else "changed under relabelling")

    cache = work / "hit-cache"
    enumeration.count_by_hausdorff(5, cache_dir=cache)
    for _ in range(CACHE_HITS):
        with tracer.span("enumeration.cache_hit"):
            table = enumeration.count_by_hausdorff(5, cache_dir=cache)
    expect("cache hit", gen.check_table(table.to_dict(), 5, False))

    table_s = tracer.total("enumeration.table")
    table_jobs2_s = tracer.total("enumeration.table_jobs2")
    return {
        "enumeration.preorders_s": tracer.total("enumeration.preorders"),
        "enumeration.preorders_count": count,
        "enumeration.labeled_counts_s": tracer.total("enumeration.labeled_counts"),
        "enumeration.table_s": table_s,
        "enumeration.table_t0_s": tracer.total("enumeration.table_t0"),
        "enumeration.canonical_self_s": table_s - tracer.total("enumeration.labeled_counts"),
        "enumeration.canonical_form_us":
            1e6 * statistics.mean(tracer.durations("enumeration.canonical_form")),
        "enumeration.table_jobs2_s": table_jobs2_s,
        "enumeration.pool_speedup": table_s / table_jobs2_s,
        "enumeration.cache_hit_s": statistics.median(tracer.durations("enumeration.cache_hit")),
    }


def run(root: Path, work: Path, client, seed: int) -> tuple[dict, dict, Outcomes]:
    outcomes = Outcomes()
    start_s = statistics.median(client.python(["-c", "pass"]).seconds
                                for _ in range(PROCESS_REPEATS))
    import_times = []
    for _ in range(PROCESS_REPEATS):
        result = client.python(["-c", IMPORT_TIMER])
        if result.returncode:
            raise RuntimeError(f"import hausnum.cli failed:\n{result.stderr}")
        import_times.append(float(result.stdout))

    # The in-process calls see the same isolation as the children.
    os.environ["TOPO_CACHE_DIR"] = client.env["TOPO_CACHE_DIR"]
    os.environ.pop("HAUSNUM_BACKEND", None)
    sys.path.insert(0, str(root / "src"))
    import hausnum
    if not Path(hausnum.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"imported hausnum from {hausnum.__file__}, not this checkout")

    query_dir, space_dir = work / "queries", work / "spaces"
    query_dir.mkdir()
    space_dir.mkdir()
    queries = mixes.queries_warm(random.Random(seed), query_dir, client)
    spaces = mixes.spaces_large(random.Random(seed), space_dir, client)

    # Overhead: alternate untraced and traced passes of the query mix.
    run_in_process(queries, outcomes)  # warm-up
    plain, traced = [], []
    for _ in range(OVERHEAD_PAIRS):
        plain.append(run_in_process(queries, outcomes))
        with instrumented(Tracer()):
            traced.append(run_in_process(queries, outcomes))
    overhead_pct = 100 * (statistics.median(traced) / statistics.median(plain) - 1)

    mix_tracer = Tracer()
    with instrumented(mix_tracer):
        run_in_process(queries, outcomes)
        main_s = mix_tracer.total("cli.main")
        run_in_process(spaces, outcomes)

    # Span metrics are self time, so a layer is not charged for the layers it
    # calls; cli.main_s is the whole in-process request.
    own = mix_tracer.self_times()
    metrics = {
        "cli.process_start_s": start_s,
        "cli.import_s": statistics.median(import_times),
        "cli.main_s": main_s,
        "jsonio.load_s": own["jsonio.load"],
        "jsonio.dumps_s": own["jsonio.dumps"],
        "core.validate_s": own["core.validate"],
        "core.subbasis_s": own["core.subbasis"],
        "core.opens_total": mix_tracer.counts["opens"],
        "separation.axioms_s": own["separation.axioms"],
        "separation.hnumber_s": own["separation.hnumber"],
        "constructions.build_s": own["constructions.build"],
        "separation.oracle_s": own["separation.oracle"],
        "symbolic.query_s": sum(own[k] for k in ("symbolic.separable", "symbolic.hnumber",
                                                 "symbolic.t1")),
        **enumeration_layers(Tracer(), work, seed, outcomes),
        "trace.overhead_pct": overhead_pct,
    }
    extra = {
        "moves": {name: PER_LAYER[name][2] for name in PER_LAYER},
        "overhead_passes_s": {"untraced": plain, "traced": traced},
        "span_calls": dict(Counter(s[0] for s in mix_tracer.spans)),
        "span_inclusive_s": {name: mix_tracer.total(name) for name in TRACED},
        "pool_speedup_base": f"enumeration.table_s / enumeration.table_jobs2_s (jobs={mixes.JOBS})",
    }
    return {name: (metrics[name], PER_LAYER[name][0]) for name in PER_LAYER}, extra, outcomes
