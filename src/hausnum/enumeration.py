"""Exhaustive enumeration and count tables of topologies on n labeled points.

A topology on n points is the same data as its specialization preorder:
``rows[a]`` is the bit mask of the minimal open neighborhood of ``a``, i.e.
of the points b with a <= b.  Two independent routes lead to the counts.

The direct walk, ``_walk``, backtracks over relation matrices row by row
with incremental transitivity checks, emitting row tuples in ascending order
(rows compared as integers, row 0 outermost).  Its clients read it and keep
only what they need: ``enumerate_preorders`` and ``enumerate_labeled`` stream
every labeled topology, built from a leaf's rows unchecked (each is a preorder
by construction), ``labeled_and_t0_counts`` counts the leaves and the T0 ones
(rows pairwise distinct), and ``stirling_consistency`` sums those counts.
The tests keep their own class map on the walk, the first leaf of each canonical form.
One search, ``_least_rows``, relabels: the least row tuple over the labelings
that keep given cells of points on their runs of labels gives canonical forms
(from its default, the invariant cells), automorphism cosets and class representatives.

The count tables and ``enumerate_classes`` come from T0 quotients instead.
Every topology is a set partition into k blocks plus a partial order on the
blocks, and its Hausdorff number is 1 + the largest total size of the blocks
at or below one block.  Unlabeled posets are generated by canonical
augmentation with their automorphism groups (McKay, J. Algorithms 26, 1998;
Brinkmann & McKay, Order 19, 2002): a poset grows by a maximal point over a
down-set that is least in its orbit, and the child is kept only when the new
point is its canonical deletion, the maximal point with the largest
down-set.  The group of a kept child is the stabilizer of the down-set,
composed with the swaps of the new point and its twins (maximal points over
the same down-set), if any; only other ties take the full search,
``_least_rows(child, every=True)``.  A poset with block sizes s is one class
of n!/(prod s_i! * |Stab s|) labeled topologies.  ``_classes`` yields each
class once as the posets stream by level, only the level the next grows from
kept.  The tests check the two routes against each other (the Hausdorff
histogram of the walk is their own reference), and the naive open-family
filter at the end against both.
"""

from __future__ import annotations

import contextlib
import os
from itertools import accumulate, chain, combinations
from math import factorial, prod
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ._records import FrozenRecord
from .errors import BadParameter, ParseError, TooLarge
from .jsonio import dumps_canonical, read_json
from .limits import ENUM_MAX_POINTS, NAIVE_MAX_POINTS, TABLE_MAX_POINTS, is_int, shown

if TYPE_CHECKING:
    from .core import FiniteTopology, Preorder

CACHE_VERSION = "counts-v1"
CACHE_ENV_VAR = "TOPO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".topo-cache"
_ROW_KEYS = ("hausdorff_number", "labeled_count", "class_count")  # of each table row


def _check_cap(n: int, cap: int) -> None:
    if not is_int(n) or n < 1:
        raise TooLarge(f"point count must be a positive integer, got {shown(n)}")
    if n > cap:
        raise TooLarge(f"supported up to {cap} points here, got {shown(n, str)}")


class CanonicalForm(FrozenRecord):
    """Relabeling-invariant identity of a topology: its least rows, each row as
    ``(n + 7) // 8`` big-endian bytes (one byte a row for n <= 8), as ``_encode`` writes them."""

    __slots__ = ("encoding",)

    def __init__(self, encoding: bytes):
        self._assign(encoding)


def _encode(rows) -> bytes:
    """The bytes of a form: each row as ``(n + 7) // 8`` big-endian bytes, so ``bytes(rows)``
    for n <= 8, and for one n the encodings sort as the row tuples do."""
    width = (len(rows) + 7) // 8
    return b"".join(row.to_bytes(width, "big") for row in rows)


class CountsTable(FrozenRecord):
    """Topology counts on n points classified by Hausdorff number."""

    __slots__ = ("n", "rows", "labeled_total", "class_total", "t0_labeled_count", "t0_only")

    def __init__(self, n: int, rows: dict[int, tuple[int, int]], labeled_total: int,
                 class_total: int, t0_labeled_count: int, t0_only: bool = False):
        # rows: H -> (labeled_count, class_count)
        self._assign(n, rows, labeled_total, class_total, t0_labeled_count, t0_only)

    def to_dict(self) -> dict:
        return {
            "format": "counts-table/v1",
            "cache_version": CACHE_VERSION,
            "n": self.n,
            "t0_only": self.t0_only,
            "rows": [dict(zip(_ROW_KEYS, (k, *self.rows[k]))) for k in sorted(self.rows)],
            "labeled_total": self.labeled_total,
            "class_total": self.class_total,
            "t0_labeled_count": self.t0_labeled_count,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CountsTable":
        """The table of a ``counts-table/v1`` document, the one reader of the format.

        :class:`ParseError` unless ``doc`` is exactly what ``to_dict`` writes for a
        consistent table: n and every count an integer >= 1, every Hausdorff number
        in 2..n+1, at most as many classes as labeled topologies in each row, totals
        that equal the row sums, and a T0 count at most the labeled total, equal to
        it under ``t0_only``.
        """
        get = doc.get if isinstance(doc, dict) else {}.get
        rows = get("rows") if isinstance(get("rows"), list) else []
        rows = [tuple(map(row.get, _ROW_KEYS)) for row in rows if isinstance(row, dict)]
        n, labeled, classes, t0 = map(get, ("n", "labeled_total", "class_total",
                                            "t0_labeled_count"))
        if not all(is_int(c) and c >= 1 for c in (n, labeled, classes, t0, *chain(*rows))):
            raise ParseError("counts-table/v1: n and every count must be integers >= 1")
        table = cls(n, {h: (lab, c) for h, lab, c in rows}, labeled, classes, t0,
                    get("t0_only"))
        if not (type(table.t0_only) is bool and table.to_dict() == doc
                and all(2 <= h <= n + 1 and c <= lab for h, lab, c in rows)
                and labeled == sum(lab for _, lab, _ in rows)
                and classes == sum(c for _, _, c in rows)
                and (t0 == labeled if table.t0_only else t0 <= labeled)):
            raise ParseError("not the counts-table/v1 document of a consistent table")
        return table

    def to_csv(self) -> str:
        lines = [("n", *_ROW_KEYS)] + [(self.n, k, *self.rows[k]) for k in sorted(self.rows)]
        return "".join(",".join(map(str, line)) + "\n" for line in lines)


def _row_candidates(rows: tuple[int, ...], full: int):
    """Yield legal masks for row k = len(rows) given rows 0..k-1, ascending.

    A candidate m must contain bit k, stay inside every earlier row that
    contains k, and contain every earlier row whose index it contains;
    pairs involving rows > k are checked when those rows are assigned.
    """
    base = 1 << len(rows)
    allowed = full
    for row in rows:
        if row & base:
            allowed &= row
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


def _walk(n: int):
    """The direct walk: every preorder's row tuple on n points, ascending, for n up to
    ``ENUM_MAX_POINTS`` (whose comment gives the time at the cap)."""
    _check_cap(n, ENUM_MAX_POINTS)
    full = (1 << n) - 1
    stack = [((), _row_candidates((), full))]
    while stack:
        rows, candidates = stack[-1]
        for m in candidates:
            child = (*rows, m)
            if len(child) == n:
                yield child
            else:
                stack.append((child, _row_candidates(child, full)))
                break
        else:
            stack.pop()


def _least_rows(rows, cells: "list[int] | None" = None, every: bool = False) -> tuple[tuple, list]:
    """The least row tuple over the labelings that keep each of ``cells`` on its own run.

    Labeling ``perm`` puts point perm[i] at label i; row i has bit j iff perm[i] <= perm[j],
    and the cells (masks) own consecutive runs of labels: by default the invariant cells,
    points of equal (row popcount, column popcount) in key order.  They are
    relabeling-covariant, so from them equal least rows mean homeomorphic.  A state
    holds bits[q] = 1 << the label of q, for points labeled or alone in a cell, and the
    other cells as (first label, mask).  Label i goes to a point p of the cell starting
    at i, or to the point holding it; every cell puts the points above p first, so row i
    is exact and the least p allows.  Only the least rows i over all states and all p go
    on.  Also returns the labelings that reach the least tuple: with ``every`` all,
    ascending, |Aut| of them from the default cells.  Without it, the first cell's
    points are tried once per key: the points strictly above the point's block, those
    strictly below it, and the block's size.  Swapping two blocks of one key is an
    automorphism fixing every cell and labeled point (a labeled block-mate would have
    split them), so it maps one branch onto the other.  Its uses: canonical forms
    (default cells, pruned), a child's group in ``_posets`` (``every=True``) and class
    representatives (one cell, pruned).
    """
    n = len(rows)
    points, downs = [], [0] * n  # each point's above-list and column mask, from one pass
    for a, row in enumerate(rows):
        above = []
        while row:
            q = (row & -row).bit_length() - 1
            above.append(q)
            downs[q] |= 1 << a
            row &= row - 1
        points.append(above)
    if cells is None:
        keyed: dict[tuple[int, int], int] = {}
        for a, (up, down) in enumerate(zip(rows, downs)):
            key = (up.bit_count(), down.bit_count())
            keyed[key] = keyed.get(key, 0) | 1 << a
        cells = [keyed[key] for key in sorted(keyed)]
    if not every:
        keys = [(up & ~down, down & ~up, (up & down).bit_count()) for up, down in zip(rows, downs)]
    starts = accumulate([cell.bit_count() for cell in cells], initial=0)
    states = [([0] * n, list(zip(starts, cells)))]
    least = []
    for i in range(n):
        best, kept = None, []
        bit = 1 << i
        for bits, runs in states:
            if runs and runs[0][0] == i:
                head, rest = runs[0][1], runs[1:]
                first = [q for q in range(n) if head >> q & 1]
                if not every:
                    first = {keys[q]: q for q in first}.values()
            else:
                head, rest, first = 0, runs, [bits.index(bit)]
            for p in first:
                up = rows[p]
                row = sum(map(bits.__getitem__, points[p])) | bit
                child, split = bits.copy(), []
                child[p] = bit
                for start, cell in ((i + 1, head ^ 1 << p), *rest) if head else rest:
                    inside = cell & up
                    row |= (1 << inside.bit_count()) - 1 << start
                    for part in (inside, cell ^ inside):
                        if part & part - 1:
                            split.append((start, part))
                        elif part:
                            child[part.bit_length() - 1] = 1 << start
                        start += part.bit_count()
                if best is None or row < best:
                    best, kept = row, []
                if row == best:
                    kept.append((child, split))
        least.append(best)
        states = kept
    return tuple(least), [sorted(range(n), key=bits.__getitem__) for bits, _ in states]


def enumerate_preorders(n: int) -> Iterator[Preorder]:
    """Every specialization preorder on n points, in ascending matrix order, for n up
    to ``ENUM_MAX_POINTS`` (whose comment gives the time at the cap)."""
    from .core import _preorder

    for rows in _walk(n):
        yield _preorder(n, rows)


def enumerate_labeled(n: int) -> Iterator[FiniteTopology]:
    """Every topology on n labeled points once, in ``enumerate_preorders`` order, each
    deriving its open family on first read; n is capped by ``ENUM_MAX_POINTS``."""
    from .core import _topology

    for rows in _walk(n):
        yield _topology(n, rows)


def canonical_form(topology: FiniteTopology) -> CanonicalForm:
    """Canonical form of a topology; equal forms iff homeomorphic."""
    from .core import _topology_arg

    _check_cap(_topology_arg(topology).n, TABLE_MAX_POINTS)
    return CanonicalForm(_encode(_least_rows(topology._rows)[0]))


def enumerate_classes(n: int) -> Iterator[tuple[CanonicalForm, FiniteTopology]]:
    """One (canonical form, representative) pair per homeomorphism class.

    Pairs come in ascending order of encoding.  A class's representative is the first
    member the walk meets, i.e. the one with the least row tuple.  ``_least_rows`` of
    one member of each class of ``_classes`` (block i on consecutive labels) gives its
    form from the invariant cells and its representative from one cell.  n is capped
    by ``TABLE_MAX_POINTS``, whose comment gives the time at the cap.
    """
    _check_cap(n, TABLE_MAX_POINTS)
    from .core import _topology

    classes = []
    for quotient, sizes, _, _ in _classes(n):
        block_of = [i for i, size in enumerate(sizes) for _ in range(size)]
        member = [sum(1 << b for b, j in enumerate(block_of) if quotient[i] >> j & 1)
                  for i in block_of]
        form = _least_rows(member)[0]
        classes.append((form, _least_rows(member, [(1 << n) - 1])[0]))
    for enc, rows in sorted(classes):
        yield CanonicalForm(_encode(enc)), _topology(n, rows)


def _stabilizer(values: tuple, autos: list) -> "list | None":
    """The automorphisms that fix ``values``, or None unless it is least in its orbit.

    ``values`` holds one entry per point, and ``auto`` maps it to the tuple of
    ``values[auto[a]]``.  The search stops at the first smaller image.
    """
    fixing = []
    for auto in autos:
        image = tuple(map(values.__getitem__, auto))
        if image < values:
            return None
        if image == values:
            fixing.append(auto)
    return fixing


def _posets(n: int) -> Iterator[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """Unlabeled posets on k = 1..n points, each once, as (rows, automorphisms).

    ``rows[a]`` is the mask of the points at or above a, and the labeling is a
    linear extension: nothing lies above a point at a lower index.  An
    automorphism maps each point a to ``auto[a]``; the list is the whole group.
    They stream by ascending k, and only the level the next grows from is kept.

    Canonical augmentation (McKay, J. Algorithms 26, 1998): a poset on k - 1
    points grows by a new maximal point x over a down-set D, and the child is
    kept iff x is its canonical deletion, the maximal point with the largest
    down-set, and D is the least of its Aut-orbit.  So each child comes from
    one parent, the poset left by its canonical deletion, and from one of that
    parent's down-sets.  When every tie (a maximal point with a down-set as
    large as D) is a twin of x, maximal over D too, Aut(child) is the
    stabilizer of D composed with the swaps of x and each twin; with no tie it
    fixes x.  Any other tie goes to ``_least_rows(child, every=True)``: the
    tied point of least canonical position is the deletion, x must share its
    orbit, and the child's group comes from the reaching permutations.
    """
    parents = [((), [()])]  # level 1 grows from the empty poset
    for k in range(1, n + 1):
        x = k - 1
        top = 1 << x
        level = []
        for rows, autos in parents:
            below = [sum(1 << a for a in range(b) if rows[a] >> b & 1) for b in range(x)]
            maxima = [(below[m].bit_count(), m) for m in range(x) if rows[m] == 1 << m]
            largest = max((s for s, _ in maxima), default=0)
            downs = [0]
            for a in range(x):  # below[a] holds lower indices only
                downs += [d | 1 << a for d in downs if below[a] & ~d == 0]
            for d in downs:
                size = d.bit_count()
                # x must have the largest down-set; a maximal point whose
                # down-set is as large as D is not in D, so it stays maximal
                if largest > size:
                    continue
                stab = _stabilizer(tuple(d >> a & 1 for a in range(x)), autos)
                if stab is None:
                    continue
                ties = [m for s, m in maxima if s == size]
                child = tuple(row | top if d >> a & 1 else row
                              for a, row in enumerate(rows)) + (top,)
                if all(below[t] == d for t in ties):
                    group = []
                    for auto in stab:
                        auto += (x,)
                        group.append(auto)
                        for t in ties:  # auto after the swap of x and t
                            swapped = list(auto)
                            swapped[x], swapped[t] = auto[t], x
                            group.append(tuple(swapped))
                else:
                    reaching = _least_rows(child, every=True)[1]
                    # position[p] is the canonical label of p
                    position = sorted(range(k), key=reaching[0].__getitem__)
                    least = min(position[t] for t in (*ties, x))
                    if all(perm[least] != x for perm in reaching):
                        continue
                    group = [tuple(perm[position[a]] for a in range(k)) for perm in reaching]
                yield child, group
                if k < n:
                    level.append((child, group))
        parents = level


def _classes(n: int):
    """Each homeomorphism class on n points once, as (rows, sizes, labeled, H).

    ``rows`` is a T0 quotient P on k points, read once from the ``_posets`` stream, and
    ``sizes`` its block sizes, a composition of n into k parts.  Block sizes in one
    Aut(P)-orbit give the same class, taken at the least of them; that class has
    ``labeled`` = n!/(prod s_i! * |Stab s|) labelings and Hausdorff number H = 1 + max
    over b of the sizes of the blocks at or below b.  T0 classes are k = n.
    """
    compositions = {k: [] for k in range(1, n + 1)}  # by part count
    for k, parts in compositions.items():
        for cuts in combinations(range(1, n), k - 1):
            sizes = tuple(hi - lo for lo, hi in zip((0,) + cuts, cuts + (n,)))
            parts.append((sizes, factorial(n) // prod(map(factorial, sizes))))  # labelings
    for rows, autos in _posets(n):
        # the largest sums are at the maximal points
        unders = [[a for a in range(b + 1) if rows[a] >> b & 1]
                  for b, row in enumerate(rows) if row == 1 << b]
        for sizes, labelings in compositions[len(rows)]:
            fixing = _stabilizer(sizes, autos)
            if fixing is None:
                continue
            h = 1 + max(sum(map(sizes.__getitem__, under)) for under in unders)
            yield rows, sizes, labelings // len(fixing), h


def _tables(n: int) -> "tuple[CountsTable, CountsTable]":
    """The all and T0 tables on n points from one ``_classes`` pass (T0: n-point quotients)."""
    hists = ({}, {})  # all, T0: H -> (labeled count, class count)
    for rows, _, labeled, h in _classes(n):
        for hist in hists[:1 + (len(rows) == n)]:
            lab, count = hist.get(h, (0, 0))
            hist[h] = (lab + labeled, count + 1)
    t0_count = sum(lab for lab, _ in hists[1].values())
    return tuple(CountsTable(n, dict(sorted(hist.items())), *map(sum, zip(*hist.values())),
                             t0_count, t0_only) for hist, t0_only in zip(hists, (False, True)))


def resolve_cache_dir(explicit: "str | os.PathLike | None" = None) -> Path:
    """``explicit``, else the environment's or the default; ``BadParameter`` if not a path."""
    if explicit in (None, ""):
        explicit = os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_DIR
    try:
        path = Path(explicit)
    except TypeError:
        path = None
    if path is None or "\0" in str(path):  # no file system call takes a NUL
        raise BadParameter(f"cache dir must be a path, got {shown(explicit)}")
    return path


def _read_cache(path: Path, n: int, t0_only: bool) -> "CountsTable | None":
    """The cached table for (n, t0_only), or None unless the file holds one.

    Only a regular file (or a link to one) is read, so a FIFO, a device or a path
    that cannot be looked up is a miss.  ``CountsTable.from_dict`` reads the document; this checks only
    the cache key, that the table's n and ``t0_only`` are the ones asked for.
    """
    if not os.path.isfile(path):  # False on any OSError, unlike Path.is_file
        return None
    try:
        table = CountsTable.from_dict(read_json(path))
    except ParseError:
        return None
    return table if table.n == n and table.t0_only == t0_only else None


def _write_cache(path: Path, table: "CountsTable") -> None:
    """Best effort; a new temp file (mode ``0o666 & ~umask``, so a cache shared between
    users serves them all) and a rename, so readers never see half a file."""
    text = dumps_canonical(table.to_dict())
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "x", encoding="utf-8") as fh:  # O_CREAT | O_EXCL, mode 0o666
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def count_by_hausdorff(n: int, jobs: int = 1,
                       cache_dir: "str | os.PathLike | None" = None,
                       use_cache: bool = True,
                       t0_only: bool = False) -> CountsTable:
    """Count every topology (and class) on n points by Hausdorff number.

    Results are cached as JSON keyed by (n, filter, cache version); a stale or malformed
    file triggers recomputation.  A miss computes the tables of both filters in one pass
    and caches both.  ``t0_only`` restricts the histogram and class counts to T0
    topologies; ``t0_labeled_count`` is always the count of T0 topologies among all of
    them.  ``jobs`` is accepted for compatibility; the computation is serial.
    """
    _check_cap(n, TABLE_MAX_POINTS)
    if not is_int(jobs) or jobs < 1:
        raise TooLarge(f"worker count must be >= 1, got {shown(jobs)}")
    for name, flag in (("use_cache", use_cache), ("t0_only", t0_only)):
        if type(flag) is not bool:
            raise BadParameter(f"{name} must be True or False, got {shown(flag)}")
    directory = resolve_cache_dir(cache_dir)
    paths = [directory / f"counts-n{n}-{tag}.json" for tag in ("all", "t0")]
    if not use_cache:
        return _tables(n)[t0_only]
    cached = _read_cache(paths[t0_only], n, t0_only)
    if cached is not None:
        return cached
    tables = _tables(n)
    for path, table in zip(paths, tables):
        _write_cache(path, table)
    return tables[t0_only]


def labeled_and_t0_counts(n: int) -> tuple[int, int]:
    """(number of topologies, number of T0 topologies) on n labeled points.

    Counted on the direct walk, independently of ``count_by_hausdorff``.
    """
    total = t0_count = 0
    for rows in _walk(n):
        total += 1
        t0_count += len(set(rows)) == n
    return total, t0_count


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind by the standard recurrence: O(n * k) steps
    with no cap on n (1.1-1.3 s for n = 2,000, k = 1,000 on a 2-vCPU VM)."""
    if not is_int(n) or not is_int(k):
        raise BadParameter(f"Stirling numbers take integers, got {shown(n)} and {shown(k)}")
    if k < 0 or k > n:
        return 0
    table = [1] + [0] * k
    for row in range(1, n + 1):
        for col in range(min(row, k), 0, -1):
            table[col] = col * table[col] + table[col - 1]
        table[0] = 0
    return table[k]


class StirlingReport(FrozenRecord):
    __slots__ = ("n", "holds", "topology_count", "combination_total", "terms")

    def __init__(self, n: int, holds: bool, topology_count: int, combination_total: int,
                 terms: list[tuple[int, int, int]] | None = None):
        # terms: (k, S(n,k), T0(k))
        self._assign(n, holds, topology_count, combination_total, [] if terms is None else terms)

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
    _check_cap(n, ENUM_MAX_POINTS)  # before the walks of every k < n, not after them
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
