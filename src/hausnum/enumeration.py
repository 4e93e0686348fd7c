"""Exhaustive enumeration and count tables of topologies on n labeled points.

A topology on n points is the same data as its specialization preorder:
``rows[a]`` is the bit mask of the minimal open neighborhood of ``a``, i.e.
of the points b with a <= b.  Two independent routes lead to the counts.

The direct walk, ``_walk``, backtracks over relation matrices row by row
with incremental transitivity checks, emitting row tuples in ascending order
(rows compared as integers, row 0 outermost).  Each client reads the walk
itself and keeps only what it needs: ``enumerate_preorders`` streams every
labeled topology, ``labeled_and_t0_counts`` counts the leaves and the T0 ones
(rows pairwise distinct), ``enumerate_classes`` keeps the first leaf of each
homeomorphism class, named by a canonical form that minimizes the relation
matrix over relabelings, and ``stirling_consistency`` sums those counts.

The count tables come from T0 quotients instead.  Every topology is a set
partition into k blocks plus a partial order on the blocks, and its Hausdorff
number is 1 + the largest total size of the blocks at or below one block.
Unlabeled posets are generated up to isomorphism with their automorphism
groups (Erne & Stege, Order 8, 1991; Brinkmann & McKay, Order 19, 2002); a
poset with block sizes s is one class of n!/(prod s_i! * |Stab s|) labeled
topologies.  The tests check the two routes against each other (the
Hausdorff histogram of the walk is their own reference), and the naive
open-family filter at the end against both.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from itertools import combinations, permutations, product
from math import factorial, prod
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ._records import FrozenRecord, Record
from .errors import TooLarge
from .limits import (
    ENUM_MAX_POINTS,
    NAIVE_MAX_POINTS,
    STIRLING_MAX_POINTS,
    TABLE_MAX_POINTS,
)

if TYPE_CHECKING:
    from .core import FiniteTopology, Preorder

CACHE_VERSION = "counts-v1"
CACHE_ENV_VAR = "TOPO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".topo-cache"


def _check_cap(n: int, cap: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise TooLarge(f"point count must be a positive integer, got {n!r}")
    if n > cap:
        raise TooLarge(f"supported up to {cap} points here, got {n}")


class CanonicalForm(FrozenRecord):
    """Relabeling-invariant identity of a topology: minimal matrix bytes."""

    __slots__ = ("encoding",)

    def __init__(self, encoding: bytes):
        self._assign(encoding)


class CountsTable(Record):
    """Topology counts on n points classified by Hausdorff number."""

    __slots__ = ("n", "rows", "labeled_total", "class_total", "t0_labeled_count", "t0_only")

    def __init__(self, n: int, rows: dict[int, tuple[int, int]], labeled_total: int,
                 class_total: int, t0_labeled_count: int, t0_only: bool = False):
        self.n = n
        self.rows = rows  # H -> (labeled_count, class_count)
        self.labeled_total = labeled_total
        self.class_total = class_total
        self.t0_labeled_count = t0_labeled_count
        self.t0_only = t0_only

    def to_dict(self) -> dict:
        return {
            "format": "counts-table/v1",
            "cache_version": CACHE_VERSION,
            "n": self.n,
            "t0_only": self.t0_only,
            "rows": [
                {"hausdorff_number": k,
                 "labeled_count": self.rows[k][0],
                 "class_count": self.rows[k][1]}
                for k in sorted(self.rows)
            ],
            "labeled_total": self.labeled_total,
            "class_total": self.class_total,
            "t0_labeled_count": self.t0_labeled_count,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CountsTable":
        rows = {row["hausdorff_number"]: (row["labeled_count"], row["class_count"])
                for row in doc["rows"]}
        return cls(n=doc["n"], rows=rows, labeled_total=doc["labeled_total"],
                   class_total=doc["class_total"],
                   t0_labeled_count=doc["t0_labeled_count"],
                   t0_only=doc.get("t0_only", False))

    def to_csv(self) -> str:
        lines = ["n,hausdorff_number,labeled_count,class_count"]
        for k in sorted(self.rows):
            labeled, classes = self.rows[k]
            lines.append(f"{self.n},{k},{labeled},{classes}")
        return "\n".join(lines) + "\n"


def _row_candidates(rows: list[int], k: int, full: int):
    """Yield legal masks for row k given rows 0..k-1, ascending.

    A candidate m must contain bit k, stay inside every earlier row that
    contains k, and contain every earlier row whose index it contains;
    pairs involving rows > k are checked when those rows are assigned.
    """
    allowed = full
    for j in range(k):
        if rows[j] >> k & 1:
            allowed &= rows[j]
    base = 1 << k
    vary = allowed & ~base
    below = base - 1
    s = 0
    while True:
        m = base | s
        mm = m & below
        while mm:
            low = mm & -mm
            if rows[low.bit_length() - 1] & ~m:
                break
            mm ^= low
        else:
            yield m
        if s == vary:
            return
        s = (s - vary) & vary


def _complete(rows: list[int], k: int, n: int, full: int):
    if k == n:
        yield rows
        return
    for m in _row_candidates(rows, k, full):
        rows[k] = m
        yield from _complete(rows, k + 1, n, full)


def _walk(n: int):
    """The direct walk: every preorder's row list on n points, ascending.

    The same list object is refilled between yields; copy what you keep.
    """
    return _complete([0] * n, 0, n, (1 << n) - 1)


def _canonical(rows) -> tuple[bytes, list[list[int]]]:
    """Lexicographically minimal byte serialization over relabelings.

    Byte i carries row i of the permuted relation matrix (bit j set iff
    perm(i) <= perm(j)).  Minimization runs over the permutations that keep
    points grouped by the invariant (row popcount, column popcount) with
    groups in ascending key order; the invariant is relabeling-covariant, so
    equal outputs still characterize homeomorphism exactly.

    Also returns every permutation that reaches the minimum.  They form one
    coset of the automorphism group: any two differ by an automorphism, and
    an automorphism keeps the invariant, so there are exactly |Aut| of them.
    """
    n = len(rows)
    colpc = [0] * n
    for row in rows:
        for x in range(n):
            colpc[x] += row >> x & 1
    keys = [(rows[a].bit_count(), colpc[a]) for a in range(n)]
    order = sorted(range(n), key=keys.__getitem__)

    blocks: list[list[int]] = []
    for a in order:
        if blocks and keys[blocks[-1][-1]] == keys[a]:
            blocks[-1].append(a)
        else:
            blocks.append([a])

    # permuted row i has bit j iff perm[j] is a point of row perm[i]
    points = [[x for x in range(n) if row >> x & 1] for row in rows]
    bit = [0] * n
    best = None
    reaching: list[list[int]] = []
    for parts in product(*(permutations(b) for b in blocks)):
        perm = [p for part in parts for p in part]
        for i, p in enumerate(perm):
            bit[p] = 1 << i
        enc = bytes(sum(bit[x] for x in points[p]) for p in perm)
        if best is None or enc < best:
            best, reaching = enc, [perm]
        elif enc == best:
            reaching.append(perm)
    return best, reaching


def enumerate_preorders(n: int) -> Iterator[Preorder]:
    """Every specialization preorder on n points, in ascending matrix order."""
    _check_cap(n, ENUM_MAX_POINTS)
    from .core import Preorder

    for rows in _walk(n):
        yield Preorder(n, tuple(rows))


def enumerate_labeled(n: int) -> Iterator[FiniteTopology]:
    """Every topology on n labeled points exactly once, deterministic order."""
    from .core import topology_from_preorder

    for preorder in enumerate_preorders(n):
        yield topology_from_preorder(preorder)


def canonical_form(topology: FiniteTopology) -> CanonicalForm:
    """Canonical form of a topology; equal forms iff homeomorphic."""
    _check_cap(topology.n, ENUM_MAX_POINTS)
    from .core import specialization_preorder

    return CanonicalForm(_canonical(specialization_preorder(topology).rows)[0])


def enumerate_classes(n: int) -> Iterator[tuple[CanonicalForm, FiniteTopology]]:
    """One (canonical form, representative) pair per homeomorphism class.

    Pairs come in ascending order of encoding.  A class's representative is
    the first member the walk meets, i.e. the one with the least row tuple.
    """
    _check_cap(n, ENUM_MAX_POINTS)
    from .core import Preorder, topology_from_preorder

    first: dict[bytes, tuple[int, ...]] = {}
    for rows in _walk(n):
        first.setdefault(_canonical(rows)[0], tuple(rows))
    for enc in sorted(first):
        yield CanonicalForm(enc), topology_from_preorder(Preorder(n, first[enc]))


def _posets(n: int) -> list[dict[bytes, list[tuple[int, ...]]]]:
    """Unlabeled posets on k = 1..n points: canonical encoding -> automorphisms.

    Byte i of an encoding is row i of the poset in its canonical labeling,
    on which the automorphisms act.  Removing a maximal element from a poset
    on k points leaves one on k - 1 points, below which the removed element
    sat over a down-set; so growing every poset on k - 1 points by a maximal
    element over each of its down-sets reaches every poset on k points.
    """
    levels = [{b"\x01": [(0,)]}]
    for k in range(2, n + 1):
        top = 1 << (k - 1)
        found: dict[bytes, list[tuple[int, ...]]] = {}
        for enc in levels[-1]:
            for down in range(top):
                # a down-set meets no up-set of a point outside it
                if any(row & down for a, row in enumerate(enc) if not down >> a & 1):
                    continue
                rows = [row | top if down >> a & 1 else row for a, row in enumerate(enc)]
                rows.append(top)
                key, reaching = _canonical(rows)
                if key not in found:
                    inverse = [0] * k
                    for i, p in enumerate(reaching[0]):
                        inverse[p] = i
                    found[key] = [tuple(inverse[p] for p in perm) for perm in reaching]
        levels.append(found)
    return levels


def _quotient_counts(n: int, t0_only: bool):
    """(labeled histogram, class histogram, T0 labeled count) from T0 quotients.

    A T0 quotient P on k points with block sizes s (a composition of n) has
    Hausdorff number 1 + max over b of the sizes of the blocks at or below
    b.  Block sizes in one Aut(P)-orbit give the same class; that class has
    n!/(prod s_i! * |Stab s|) labelings.  T0 topologies are k = n.
    """
    hist: dict[int, int] = {}
    class_hist: dict[int, int] = {}
    t0_count = 0
    levels = _posets(n)
    for k in range(n if t0_only else 1, n + 1):
        for enc, autos in levels[k - 1].items():
            for cuts in combinations(range(1, n), k - 1):
                sizes = tuple(hi - lo for lo, hi in zip((0,) + cuts, cuts + (n,)))
                orbit = {tuple(sizes[i] for i in auto) for auto in autos}
                if min(orbit) != sizes:
                    continue
                h = 1 + max(sum(s for s, row in zip(sizes, enc) if row >> b & 1)
                            for b in range(k))
                stabilizer = len(autos) // len(orbit)
                labeled = factorial(n) // (prod(map(factorial, sizes)) * stabilizer)
                hist[h] = hist.get(h, 0) + labeled
                class_hist[h] = class_hist.get(h, 0) + 1
                if k == n:
                    t0_count += labeled
    return hist, class_hist, t0_count


def resolve_cache_dir(explicit: "str | os.PathLike | None" = None) -> Path:
    if explicit:
        return Path(explicit)
    return Path(os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_DIR)


def _cache_file(cache_dir: Path, n: int, t0_only: bool) -> Path:
    tag = "t0" if t0_only else "all"
    return cache_dir / f"counts-n{n}-{tag}.json"


def _read_cache(path: Path, n: int, t0_only: bool) -> "CountsTable | None":
    """The cached table for (n, t0_only), or None unless it is well formed.

    Well formed: exactly the document this version writes, integer counts,
    and totals that equal the row sums.
    """
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        table = CountsTable.from_dict(doc)
        counts = [table.n, table.labeled_total, table.class_total,
                  table.t0_labeled_count, *table.rows,
                  *(c for row in table.rows.values() for c in row)]
        well_formed = (
            table.to_dict() == doc and table.n == n
            and type(table.t0_only) is bool and table.t0_only == t0_only
            and all(type(c) is int for c in counts)
            and table.labeled_total == sum(c for c, _ in table.rows.values())
            and table.class_total == sum(c for _, c in table.rows.values()))
    except (OSError, ValueError, LookupError, TypeError):
        return None
    return table if well_formed else None


def _write_cache(path: Path, table: "CountsTable") -> None:
    """Best effort; a temp file and a rename, so readers never see half a file."""
    text = json.dumps(table.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile("w", encoding="utf-8", dir=path.parent,
                                         prefix=f".{path.name}.", suffix=".tmp",
                                         delete=False) as fh:
            tmp = fh.name
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def count_by_hausdorff(n: int, jobs: int = 1,
                       cache_dir: "str | os.PathLike | None" = None,
                       use_cache: bool = True,
                       t0_only: bool = False) -> CountsTable:
    """Count every topology (and class) on n points by Hausdorff number.

    Results are cached as JSON keyed by (n, filter, cache version); a stale
    or malformed file triggers recomputation.  ``t0_only`` restricts the
    histogram and class counts to T0 topologies; ``t0_labeled_count`` is
    always the count of T0 topologies among all of them.  ``jobs`` is
    accepted for compatibility; the computation is serial.
    """
    _check_cap(n, TABLE_MAX_POINTS)
    if jobs < 1:
        raise TooLarge(f"worker count must be >= 1, got {jobs}")
    cache_path = _cache_file(resolve_cache_dir(cache_dir), n, t0_only)
    if use_cache:
        cached = _read_cache(cache_path, n, t0_only)
        if cached is not None:
            return cached

    hist, class_hist, t0_count = _quotient_counts(n, t0_only)
    table = CountsTable(
        n=n,
        rows={k: (hist[k], class_hist[k]) for k in sorted(hist)},
        labeled_total=sum(hist.values()),
        class_total=sum(class_hist.values()),
        t0_labeled_count=t0_count,
        t0_only=t0_only,
    )
    if use_cache:
        _write_cache(cache_path, table)
    return table


def labeled_and_t0_counts(n: int) -> tuple[int, int]:
    """(number of topologies, number of T0 topologies) on n labeled points.

    Counted on the direct walk, independently of ``count_by_hausdorff``.
    """
    _check_cap(n, ENUM_MAX_POINTS)
    total = t0_count = 0
    for rows in _walk(n):
        total += 1
        t0_count += len(set(rows)) == n
    return total, t0_count


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind by the standard recurrence."""
    if k < 0 or k > n:
        return 0
    table = [1] + [0] * k
    for row in range(1, n + 1):
        for col in range(min(row, k), 0, -1):
            table[col] = col * table[col] + table[col - 1]
        table[0] = 0
    return table[k]


class StirlingReport(Record):
    __slots__ = ("n", "holds", "topology_count", "combination_total", "terms")

    def __init__(self, n: int, holds: bool, topology_count: int, combination_total: int,
                 terms: list[tuple[int, int, int]] | None = None):
        self.n = n
        self.holds = holds
        self.topology_count = topology_count
        self.combination_total = combination_total
        self.terms = [] if terms is None else terms  # (k, S(n,k), T0(k))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "holds": self.holds,
            "topology_count": self.topology_count,
            "combination_total": self.combination_total,
            "terms": [{"k": k, "stirling": s, "t0_count": t} for k, s, t in self.terms],
        }


def stirling_consistency(n: int) -> StirlingReport:
    """Check T(n) = sum over k of S(n,k) * T0(k) with this package's counts.

    Collapsing the partition blocks of a topology's indistinguishability
    relation leaves a T0 topology, which is where the identity comes from;
    here it is verified numerically from the enumerated counts.
    """
    _check_cap(n, STIRLING_MAX_POINTS)
    terms = []
    for k in range(1, n + 1):
        t_k, t0_k = labeled_and_t0_counts(k)  # at k = n, t_k is T(n)
        terms.append((k, stirling2(n, k), t0_k))
    total = sum(s * t0 for _, s, t0 in terms)
    return StirlingReport(n=n, holds=(total == t_k), topology_count=t_k,
                          combination_total=total, terms=terms)


def naive_enumerate_families(n: int) -> Iterator[tuple[int, ...]]:
    """Independent oracle: filter all candidate open families directly.

    Iterates every subset of the proper nonempty subsets of {0..n-1}, adjoins
    the empty and full set, and keeps the families closed under pairwise
    union and intersection.  Exponential in 2^n; the point is that it shares
    nothing with the preorder enumerator.
    """
    _check_cap(n, NAIVE_MAX_POINTS)
    full = (1 << n) - 1
    proper = [m for m in range(1, full)]
    for pick in range(1 << len(proper)):
        family = {0, full}
        for i, m in enumerate(proper):
            if pick >> i & 1:
                family.add(m)
        ok = True
        for u in family:
            for v in family:
                if (u | v) not in family or (u & v) not in family:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield tuple(sorted(family, key=lambda m: (m.bit_count(), m)))


def naive_counts(n: int) -> tuple[int, int]:
    """(topology count, T0 count) from the naive family filter."""
    total = 0
    t0_total = 0
    for family in naive_enumerate_families(n):
        total += 1
        mins = []
        for a in range(n):
            inter = (1 << n) - 1
            for m in family:
                if m >> a & 1:
                    inter &= m
            mins.append(inter)
        if len(set(mins)) == n:
            t0_total += 1
    return total, t0_total
