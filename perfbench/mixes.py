"""The three workloads: seeded invocation lists with a check for each output.

``tables_cold``   cold count tables at n = 4 and 5, then one cold
                  ``enumerate 6``: kernels, canonical forms, pool fan-out
                  and merge, cache write.  The quotient engine and a kernel
                  change must show here.
``queries_warm``  many short calls on small inputs with a filled cache:
                  process start, import, jsonio, cache reads.  Never reaches
                  the kernels, so a kernel change should not move it.
``spaces_large``  analyze and verify on 9..12 points: the O(|opens|^2) work
                  of validation, subbasis closure and the axiom checks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

JOBS = min(2, len(os.sched_getaffinity(0)))  # never more workers than CPUs


@dataclass
class Invocation:
    kind: str
    argv: list[str]
    check: Callable[[str], "str | None"]  # stdout -> None, or why it is wrong
    fresh_cache: bool = False             # run with a new empty --cache-dir
    tabulated: int = 0                    # labeled topologies a cold table counts

    def problem(self, returncode: int, stdout: str) -> "str | None":
        """Why this output is wrong, or None."""
        if returncode:
            return f"exit code {returncode}"
        try:
            return self.check(stdout)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"malformed output: {exc!r}"


def _json(check: Callable[[dict], "str | None"]) -> Callable[[str], "str | None"]:
    def parse_then_check(stdout: str) -> "str | None":
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        return check(doc)
    return parse_then_check


def _write(work: Path, name: str, doc: dict) -> str:
    path = work / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _analyze(work: Path, rng, name: str, n: int, rows: list[int], subbasis: bool,
             oracle: bool = False) -> Invocation:
    opens = gen.opens_of(rows)
    doc = (gen.subbasis_document(n, rows, rng) if subbasis
           else gen.opens_document(n, opens, rng))
    expected = gen.expected_analysis(n, opens)

    def check(report: dict) -> "str | None":
        problem = gen.check_analysis(report, expected)
        if problem is None and oracle:
            if (report.get("oracle_hausdorff_number"), report.get("oracle_agrees")) != \
                    (expected["hausdorff_number"], True):
                problem = "oracle disagrees with the closed form"
        return problem

    argv = ["analyze", _write(work, name, doc)] + (["--oracle"] if oracle else [])
    kind = f"analyze{' --oracle' if oracle else ''} {'subbasis' if subbasis else 'opens'} n={n}"
    return Invocation(kind, argv, _json(check))


def _verify_example(name: str, hausdorff: int, n: int) -> Invocation:
    def check(doc: dict) -> "str | None":
        if doc.get("name") != name or doc.get("passed") is not True:
            return f"{name}: verification did not pass"
        if not all(c.get("passed") is True for c in doc.get("checks", [])):
            return f"{name}: a check failed"
        topology = doc.get("topology", {})
        if topology.get("n") != n:
            return f"{name}: topology has n={topology.get('n')}, expected {n}"
        h = gen.hausdorff_number_of(topology)
        if h != hausdorff:
            return f"{name}: recomputed H={h}, expected {hausdorff}"
        return None
    return Invocation(f"example {name} --verify", ["example", name, "--verify"],
                      _json(check))


def _table(n: int, t0_only: bool, cache: "str | None", fmt: str = "json",
           jobs: int = 1) -> Invocation:
    argv = ["enumerate", str(n), "--format", fmt]
    argv += ["--t0-only"] if t0_only else []
    argv += ["--jobs", str(jobs)] if jobs != 1 else []
    argv += ["--cache-dir", cache] if cache else []
    if fmt == "csv":
        check = lambda out: gen.check_csv(out, n)  # noqa: E731
    else:
        check = _json(lambda doc: gen.check_table(doc, n, t0_only))
    kind = " ".join(argv[:argv.index("--cache-dir")] if cache else argv)
    labeled = gen.T0_LABELED[n] if t0_only else gen.LABELED[n]
    return Invocation(kind, argv, check, fresh_cache=cache is None,
                      tabulated=0 if cache else labeled)


# The timed loop tabulates n = 5 and 4, each table 0.2-0.6 s, so a run holds
# some fifteen passes and its medians rest on many samples.  A cold n = 6 table
# takes 10-20 s on a 2-vCPU VM and swings by a third from run to run with the
# host's load, more than any gated bound allows, so it runs once after the
# loop (ONCE_AFTER) and is reported as enum6_s, not gated.  The n = 6 tables
# with --t0-only and --jobs 2 are timed in the traced run.
def tables_cold(rng, work: Path, client) -> list[Invocation]:
    return [_table(5, False, None), _table(5, False, None, jobs=JOBS),
            _table(5, True, None), _table(4, False, None), _table(4, True, None)]


def _symbolic(rng) -> list[Invocation]:
    verticals = rng.choice([1, 2, 3, 5, "omega"])
    index_cap = 6 if verticals == "omega" else verticals
    t1_variant = rng.random() < 0.5
    space = ["symbolic", "--verticals", str(verticals)] + ([] if t1_variant else ["--no-t1"])
    out = []
    for hub_only in (True, False):
        points = gen.random_symbolic_points(rng, index_cap, 3, hub_only)
        separable = not all(gen.in_hub(p) for p in points)
        out.append(Invocation(
            "symbolic separable", space + ["separable", "--points", ",".join(points)],
            _json(lambda doc, want=separable: None if doc.get("separable") is want
                  else f"separable is {doc.get('separable')}, the hub rule says {want}")))
    want_h = ({"kind": "omega_1"} if verticals == "omega"
              else {"kind": "finite", "value": verticals + 2})
    out.append(Invocation(
        "symbolic hnumber", space + ["hnumber"],
        _json(lambda doc: None if doc.get("hausdorff_number") == want_h
              else f"hnumber {doc.get('hausdorff_number')}, expected {want_h}")))
    hub_pair = [f"v:{rng.randint(1, index_cap)}", "b:1/2"]
    rng.shuffle(hub_pair)
    for pair in (hub_pair, gen.random_symbolic_points(rng, index_cap, 2, False)):
        want = gen.expected_t1(t1_variant, *pair)
        out.append(Invocation(
            "symbolic t1", space + ["t1", "--pair", *pair],
            _json(lambda doc, want=want: None if doc.get("t1") is want
                  else f"t1 is {doc.get('t1')}, expected {want}")))
    return out


# A pass holds several copies of a mix, each with its own seeded inputs, so
# that one pass alone has enough samples for the tail percentile: 4 x 33 calls
# reach p90 and 2 x 25 calls reach p75 (run.TAIL_LADDER).  With one pass or a
# few, the percentile chosen does not flip with how many passes fit the time.
QUERY_COPIES = 4
SPACE_COPIES = 2


def _query_mix(rng, work: Path, cache: Path, copy: int) -> list[Invocation]:
    def doc(n: int, subbasis: bool = False, oracle: bool = False) -> Invocation:
        rows = gen.random_rows(rng, n, rng.uniform(0.05, 0.35))
        name = f"q{copy}-{n}{'-sub' if subbasis else ''}{'-oracle' if oracle else ''}.json"
        return _analyze(work, rng, name, n, rows, subbasis, oracle)

    mix = [doc(n) for n in range(2, 9)]
    mix += [doc(n, subbasis=True) for n in (3, 5, 7)]
    mix += [doc(n, oracle=True) for n in range(2, 6)]
    mix.append(_verify_example("three-point", 3, 3))
    mix.append(_verify_example("four-point", 3, 4))
    k = rng.randint(3, 8)
    mix.append(_verify_example(f"two-block:{k}", k, k))
    k = rng.randint(3, 8)
    mix.append(_verify_example(f"doubled:{k}", 3, k))
    mix += _symbolic(rng)
    for n in range(1, 6):
        mix.append(_table(n, False, str(cache)))
        mix.append(_table(n, False, str(cache), fmt="csv"))
    return mix


def queries_warm(rng, work: Path, client) -> list[Invocation]:
    cache = work / "cache"
    for n in range(1, 6):
        fill = _table(n, False, str(cache))
        result = client.hausnum(fill.argv)
        problem = fill.problem(result.returncode, result.stdout)
        if problem:
            raise RuntimeError(f"cache fill {fill.argv}: {problem}")
    return [inv for copy in range(QUERY_COPIES) for inv in _query_mix(rng, work, cache, copy)]


# (opens documents, subbasis documents) per n.  Per copy, sorted by cost,
# the median falls inside the ten n = 10 documents (ranks 6-15 of 25), not on
# the edge to the n = 11 group, where noise would flip it between costs 40 %
# apart.
DOCUMENTS = {9: (1, 1), 10: (5, 5), 11: (1, 1), 12: (4, 1)}
TWO_BLOCKS = 2


def _space_mix(rng, work: Path, copy: int) -> list[Invocation]:
    mix = []
    for n, (opens, subbases) in DOCUMENTS.items():
        for i in range(opens + subbases):
            rows = gen.paired_rows(rng, n)
            mix.append(_analyze(work, rng, f"s{copy}-{n}-{i}.json", n, rows,
                                subbasis=i >= opens))
        mix.append(_verify_example(f"doubled:{n}", 3, n))
    for _ in range(TWO_BLOCKS):
        k = rng.randint(16, 64)
        mix.append(_verify_example(f"two-block:{k}", k, k))
    return mix


def spaces_large(rng, work: Path, client) -> list[Invocation]:
    return [inv for copy in range(SPACE_COPIES) for inv in _space_mix(rng, work, copy)]


WORKLOADS = {"tables_cold": tables_cold, "queries_warm": queries_warm,
             "spaces_large": spaces_large}
# Invocations run once after the timed loop, outside its metrics.
ONCE_AFTER = {"tables_cold": [_table(6, False, None)]}
