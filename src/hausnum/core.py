"""Finite topologies on {0..n-1}: validation, preorder correspondence, subspaces.

Point sets are bit masks inside one machine word, so all set algebra is O(1)
and structural equality of topologies is plain tuple equality once the open
family is stored in canonical order (ascending cardinality, ties by ascending
mask value).

Every type here is immutable after construction and every operation is a
pure function, so values can be shared freely across threads or processes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from ._records import FrozenRecord
from .errors import (
    EmptySubset,
    InvalidTopology,
    MissingEmptySet,
    MissingFullSet,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotReflexive,
    NotTransitive,
    PointOutOfRange,
    TooLarge,
)
from .limits import MAX_OPENS, MAX_POINTS


def _check_n(n: int) -> None:
    if not isinstance(n, int) or n < 1 or n > MAX_POINTS:
        raise PointOutOfRange(f"point count must be in 1..{MAX_POINTS}, got {n!r}")


class PointSet(FrozenRecord):
    """A subset of {0..n-1}, stored as a bit mask over an n-point space."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int):
        _check_n(n)
        if not 0 <= mask < (1 << n):
            raise PointOutOfRange(f"mask {mask:#x} does not fit in a {n}-point space")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_points(cls, n: int, points: Iterable[int]) -> "PointSet":
        _check_n(n)
        mask = 0
        for p in points:
            if not isinstance(p, int) or not 0 <= p < n:
                raise PointOutOfRange(f"point {p!r} not in 0..{n - 1}")
            mask |= 1 << p
        return cls(n, mask)

    @classmethod
    def empty(cls, n: int) -> "PointSet":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "PointSet":
        return cls(n, (1 << n) - 1)

    @classmethod
    def singleton(cls, n: int, point: int) -> "PointSet":
        return cls.from_points(n, (point,))

    def _same_space(self, other: "PointSet") -> None:
        if self.n != other.n:
            raise PointOutOfRange(
                f"sets live in different spaces ({self.n} vs {other.n} points)")

    def __contains__(self, point: int) -> bool:
        return 0 <= point < self.n and bool(self.mask >> point & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def __or__(self, other: "PointSet") -> "PointSet":
        self._same_space(other)
        return PointSet(self.n, self.mask | other.mask)

    def __and__(self, other: "PointSet") -> "PointSet":
        self._same_space(other)
        return PointSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "PointSet") -> "PointSet":
        self._same_space(other)
        return PointSet(self.n, self.mask & ~other.mask)

    def complement(self) -> "PointSet":
        return PointSet(self.n, self.mask ^ ((1 << self.n) - 1))

    def issubset(self, other: "PointSet") -> bool:
        self._same_space(other)
        return self.mask & ~other.mask == 0

    def points(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"PointSet({self.n}, {{{', '.join(map(str, self))}}})"


_set_n = PointSet.n.__set__
_set_mask = PointSet.mask.__set__


def _pointsets(n: int, masks: Iterable[int]) -> tuple[PointSet, ...]:
    """PointSets over n points for masks already known to fit, built unchecked."""
    sets = []
    for mask in masks:
        s = object.__new__(PointSet)
        _set_n(s, n)
        _set_mask(s, mask)
        sets.append(s)
    return tuple(sets)


def _as_mask(n: int, s: "PointSet | Iterable[int]") -> int:
    if isinstance(s, PointSet):
        if s.n != n:
            raise PointOutOfRange(
                f"set over {s.n} points used in a {n}-point space")
        return s.mask
    return PointSet.from_points(n, s).mask


def _canonical_masks(masks: Iterable[int]) -> tuple[int, ...]:
    # by cardinality, ties by value: the second sort is stable
    return tuple(sorted(sorted(set(masks)), key=int.bit_count))


class FiniteTopology(FrozenRecord):
    """A validated family of open sets on n points, in canonical order.

    Construct via :func:`validate_topology` or :func:`generate_from_subbasis`
    unless the family is already known to be a topology.

    The fields are ``n`` and ``opens``.  The slots ``_masks`` (the open masks,
    in the order of ``opens``), ``_rows`` (``rows[a]``, the mask of the
    minimal neighbourhood of a) and ``_closures`` (``closures[x]``, the mask of
    the closure of x) hold what is derived from them: the builders of this
    module fill in what they already know, and ``open_masks``,
    ``_minimal_rows`` and ``_point_closures`` compute the rest on first use.
    Equality, hashing, the repr and pickling see the fields only.
    """

    __slots__ = ("n", "opens", "_masks", "_rows", "_closures")

    def __init__(self, n: int, opens: tuple[PointSet, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "opens", opens)
        object.__setattr__(self, "_masks", None)
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_closures", None)

    @property
    def open_masks(self) -> tuple[int, ...]:
        if self._masks is None:
            object.__setattr__(self, "_masks", tuple(u.mask for u in self.opens))
        return self._masks

    def is_open(self, s: "PointSet | Iterable[int]") -> bool:
        return _as_mask(self.n, s) in self.open_masks

    def __repr__(self) -> str:
        return f"FiniteTopology(n={self.n}, opens={len(self.opens)})"


def _topology(n: int, masks: tuple[int, ...], rows: "tuple[int, ...] | None") -> FiniteTopology:
    """The topology with these canonical, in-range open masks and minimal rows
    (None if not known yet)."""
    topology = FiniteTopology(n, _pointsets(n, masks))
    object.__setattr__(topology, "_masks", masks)
    object.__setattr__(topology, "_rows", rows)
    return topology


def validate_topology(n: int, family: Iterable["PointSet | Iterable[int]"]) -> FiniteTopology:
    """Check that ``family`` is a topology on {0..n-1} and canonicalize it.

    The family is a topology iff it holds the empty set and ``u | N(a)`` for
    every member u and every point a, where N(a) is the intersection of the
    members containing a (the full set if none does).  It then holds every
    union of the N(a), the full set among them, and each member is the union
    of the N(a) of its points, so it is closed under union and intersection.
    That is O(n * |family|).  Only a rejected family is scanned pair by pair,
    so that :class:`InvalidTopology` names every defect found and the first
    failing pair in canonical order.  Raises :class:`TooLarge` past
    ``MAX_OPENS`` distinct sets.
    """
    _check_n(n)
    masks = _canonical_masks(_as_mask(n, s) for s in family)
    if len(masks) > MAX_OPENS:
        raise TooLarge(f"more than {MAX_OPENS} open sets")
    full = (1 << n) - 1
    mask_set = set(masks)
    rows = _rows_from_masks(n, masks)
    if 0 in mask_set and all(mask_set.issuperset([u | row for u in masks])
                             for row in set(rows)):
        return _topology(n, masks, rows)

    issues: list = []
    if 0 not in mask_set:
        issues.append(MissingEmptySet())
    if full not in mask_set:
        issues.append(MissingFullSet())

    union_issue = intersection_issue = None
    for i, u in enumerate(masks):
        for v in masks[i + 1:]:
            if union_issue is None and (u | v) not in mask_set:
                union_issue = NotClosedUnderUnion(
                    first=tuple(PointSet(n, u)), second=tuple(PointSet(n, v)))
            if intersection_issue is None and (u & v) not in mask_set:
                intersection_issue = NotClosedUnderIntersection(
                    first=tuple(PointSet(n, u)), second=tuple(PointSet(n, v)))
        if union_issue is not None and intersection_issue is not None:
            break
    if union_issue is not None:
        issues.append(union_issue)
    if intersection_issue is not None:
        issues.append(intersection_issue)
    raise InvalidTopology(issues)


def generate_from_subbasis(n: int, subbasis: Iterable["PointSet | Iterable[int]"]) -> FiniteTopology:
    """Smallest topology containing ``subbasis``.

    The minimal neighbourhood of a point is the intersection of the subbasis
    members containing it (the full set if none does); the topology is every
    union of those neighbourhoods.  Raises :class:`TooLarge` past
    ``MAX_OPENS`` open sets.
    """
    _check_n(n)
    rows = _rows_from_masks(n, [_as_mask(n, s) for s in subbasis])
    return _topology(n, _canonical_masks(_up_sets(rows)), rows)


def _check_point(n: int, a: int) -> None:
    if not isinstance(a, int) or not 0 <= a < n:
        raise PointOutOfRange(f"point {a!r} not in 0..{n - 1}")


def minimal_neighborhood(topology: FiniteTopology, a: int) -> PointSet:
    """Intersection of all open sets containing ``a`` (open, since finite)."""
    _check_point(topology.n, a)
    return PointSet(topology.n, _minimal_rows(topology)[a])


def _rows_from_masks(n: int, masks: Sequence[int]) -> tuple[int, ...]:
    """``rows[a]``: the intersection of the masks containing a (full if none)."""
    rows = []
    for a in range(n):
        bit = 1 << a
        row = (1 << n) - 1
        for u in masks:
            if u & bit:
                row &= u
        rows.append(row)
    return tuple(rows)


def _minimal_rows(topology: FiniteTopology) -> tuple[int, ...]:
    if topology._rows is None:
        object.__setattr__(topology, "_rows",
                           _rows_from_masks(topology.n, topology.open_masks))
    return topology._rows


def _point_closures(topology: FiniteTopology) -> tuple[int, ...]:
    """``closures[x]`` = {a : x in N(a)}, the closure of the point x."""
    if topology._closures is None:
        rows = _minimal_rows(topology)
        object.__setattr__(topology, "_closures", tuple(
            sum(1 << a for a, row in enumerate(rows) if row >> x & 1)
            for x in range(len(rows))))
    return topology._closures


def _up_sets(rows: Iterable[int]) -> set[int]:
    """Every union of ``rows``, the empty union included.

    Raises :class:`TooLarge` as soon as the family passes ``MAX_OPENS``, so
    it never holds more than about twice that many sets.
    """
    sets = {0}
    for row in rows:
        sets |= {u | row for u in sets}
        if len(sets) > MAX_OPENS:
            raise TooLarge(f"more than {MAX_OPENS} open sets")
    return sets


class Preorder(FrozenRecord):
    """A reflexive transitive relation; ``rows[a]`` is the mask {b : a <= b}.

    ``a <= b`` holds exactly when b lies in every open set containing a, so a
    preorder is the same data as a finite topology.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        _check_n(n)
        if len(rows) != n:
            raise PointOutOfRange(f"expected {n} rows, got {len(rows)}")
        full = (1 << n) - 1
        for a, row in enumerate(rows):
            if not 0 <= row <= full:
                raise PointOutOfRange(f"row {a} does not fit in {n} bits")
            if not row >> a & 1:
                raise NotReflexive(f"{a} <= {a} fails")
        for a, row in enumerate(rows):
            m = row
            while m:
                low = m & -m
                b = low.bit_length() - 1
                if rows[b] & ~row:
                    c = (rows[b] & ~row)
                    c = (c & -c).bit_length() - 1
                    raise NotTransitive(f"{a} <= {b} and {b} <= {c} but not {a} <= {c}")
                m ^= low
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def leq(self, a: int, b: int) -> bool:
        _check_point(self.n, a)
        _check_point(self.n, b)
        return bool(self.rows[a] >> b & 1)

    def matrix(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(tuple(bool(row >> b & 1) for b in range(self.n))
                     for row in self.rows)

    @classmethod
    def from_matrix(cls, matrix: Iterable[Iterable[bool]]) -> "Preorder":
        rows = []
        mat = [list(r) for r in matrix]
        n = len(mat)
        for r in mat:
            if len(r) != n:
                raise PointOutOfRange("relation matrix must be square")
            rows.append(sum(1 << b for b, v in enumerate(r) if v))
        return cls(n, tuple(rows))


def specialization_preorder(topology: FiniteTopology) -> Preorder:
    """a <= b iff b belongs to the minimal neighborhood of a."""
    return Preorder(topology.n, _minimal_rows(topology))


def topology_from_preorder(preorder: Preorder) -> FiniteTopology:
    """All up-closed sets of the preorder, i.e. all unions of its rows.

    Inverse of :func:`specialization_preorder` in both directions.  Raises
    :class:`TooLarge` past ``MAX_OPENS`` open sets.
    """
    return _topology(preorder.n, _canonical_masks(_up_sets(preorder.rows)),
                     tuple(preorder.rows))


class SubspaceResult(NamedTuple):
    topology: FiniteTopology
    labels: tuple[int, ...]  # labels[i] = original point carried by new index i


def subspace(topology: FiniteTopology, points: "PointSet | Iterable[int]") -> SubspaceResult:
    """Trace topology {U ∩ S : U open}, reindexed onto {0..|S|-1}.

    The order-preserving point map is returned alongside so reports can
    refer to the original labels.
    """
    s_mask = _as_mask(topology.n, points)
    if s_mask == 0:
        raise EmptySubset("subspace carrier must be nonempty")
    labels = tuple(PointSet(topology.n, s_mask))
    index_of = {p: i for i, p in enumerate(labels)}

    traces = set()
    for u in topology.open_masks:
        t = u & s_mask
        new_mask = 0
        m = t
        while m:
            low = m & -m
            new_mask |= 1 << index_of[low.bit_length() - 1]
            m ^= low
        traces.add(new_mask)
    return SubspaceResult(_topology(len(labels), _canonical_masks(traces), None), labels)
