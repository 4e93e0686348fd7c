"""Finite topologies on {0..n-1}: validation, preorder correspondence, subspaces.

Point sets are bit masks inside one machine word, so all set algebra is O(1)
and structural equality of topologies is plain tuple equality once the open
family is stored in canonical order (ascending cardinality, ties by ascending
mask value).

Every type here is immutable after construction (a topology may derive its open
family on first read, the same in any thread) and every operation is a pure
function, so values can be shared freely across threads or processes.
"""

from __future__ import annotations

from itertools import repeat
from operator import or_
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
    SpaceMismatch,
    TooLarge,
)
from .limits import MAX_OPENS, MAX_POINTS, REJECT_MAX_OPENS, collection, instance, is_int, shown


def _check_n(n: int) -> None:
    if not is_int(n) or n < 1 or n > MAX_POINTS:
        raise PointOutOfRange(f"point count must be in 1..{MAX_POINTS}, got {shown(n)}")


def _check_point(n: int, a: int) -> None:
    if not is_int(a) or not 0 <= a < n:
        raise PointOutOfRange(f"point {shown(a)} not in 0..{n - 1}")


def _points_mask(n: int, points: Iterable[int]) -> int:
    """The mask of a collection of points, each checked as a point of {0..n-1}."""
    mask = 0
    for p in collection(points, PointOutOfRange):
        _check_point(n, p)
        mask |= 1 << p
    return mask


def _points(mask: int) -> list[int]:
    """The set bits of ``mask``, in ascending order."""
    points = []
    while mask:
        low = mask & -mask
        points.append(low.bit_length() - 1)
        mask ^= low
    return points


class PointSet(FrozenRecord):
    """A subset of {0..n-1}, stored as a bit mask over an n-point space."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int):
        _check_n(n)
        if not is_int(mask) or not 0 <= mask < (1 << n):
            raise PointOutOfRange(f"mask {shown(mask)} does not fit in a {n}-point space")
        self._assign(n, mask)

    @classmethod
    def from_points(cls, n: int, points: Iterable[int]) -> "PointSet":
        _check_n(n)
        return cls(n, _points_mask(n, points))

    @classmethod
    def empty(cls, n: int) -> "PointSet":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "PointSet":
        return cls(n, 0).complement()

    @classmethod
    def singleton(cls, n: int, point: int) -> "PointSet":
        return cls.from_points(n, (point,))

    def _same_space(self, other: "PointSet") -> bool:
        """Whether ``other`` is a PointSet; :class:`PointOutOfRange` if over another n."""
        if not isinstance(other, PointSet):
            return False
        if self.n != other.n:
            raise PointOutOfRange(
                f"sets live in different spaces ({self.n} vs {other.n} points)")
        return True

    def __contains__(self, point: int) -> bool:
        return is_int(point) and 0 <= point < self.n and bool(self.mask >> point & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(_points(self.mask))

    def __or__(self, other: "PointSet") -> "PointSet":
        return PointSet(self.n, self.mask | other.mask) if self._same_space(other) else NotImplemented

    def __and__(self, other: "PointSet") -> "PointSet":
        return PointSet(self.n, self.mask & other.mask) if self._same_space(other) else NotImplemented

    def __sub__(self, other: "PointSet") -> "PointSet":
        return PointSet(self.n, self.mask & ~other.mask) if self._same_space(other) else NotImplemented

    def complement(self) -> "PointSet":
        return PointSet(self.n, self.mask ^ ((1 << self.n) - 1))

    def issubset(self, other: "PointSet") -> bool:
        self._same_space(instance(other, PointSet, SpaceMismatch, "point set"))
        return self.mask & ~other.mask == 0

    def points(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"PointSet({self.n}, {{{', '.join(map(str, self))}}})"


def _as_mask(n: int, s: "PointSet | Iterable[int]") -> int:
    if isinstance(s, PointSet):
        if s.n != n:
            raise PointOutOfRange(
                f"set over {s.n} points used in a {n}-point space")
        return s.mask
    return _points_mask(n, s)


def _canonical_masks(masks: Iterable[int]) -> tuple[int, ...]:
    # by cardinality, ties by value: the second sort is stable
    return tuple(sorted(sorted(set(masks)), key=int.bit_count))


class FiniteTopology(FrozenRecord):
    """A validated family of open sets on n points, in canonical order.

    Construct via :func:`validate_topology` or :func:`generate_from_subbasis`
    unless the family is already known to be a topology: the constructor is
    unchecked in that it takes the axioms on trust, but it reads the kinds of
    its arguments, n as a point count and ``opens`` as a collection of
    :class:`PointSet` over n points, stored as a tuple.

    The fields are ``n`` and ``opens``.  Every topology also holds ``_masks``
    (the open masks, in the order of ``opens``) and ``_rows`` (``rows[a]``, the
    mask of the minimal neighbourhood of a), derived by ``__init__``.  A package
    builder sets ``n`` and ``_rows`` and may leave ``_masks`` and ``opens`` to
    their first read, which stores them (equal values, from any thread).  Equality,
    hashing, the repr and pickling see the fields only, so derive ``opens`` first.
    """

    __slots__ = ("n", "opens", "_masks", "_rows")

    def __init__(self, n: int, opens: tuple[PointSet, ...]):
        _check_n(n)
        opens = tuple(instance(u, PointSet, SpaceMismatch, "point set")
                      for u in collection(opens, PointOutOfRange))
        masks = tuple(_as_mask(n, u) for u in opens)
        self._assign(n, opens, masks, _rows_from_masks(n, masks))

    def __getattr__(self, name: str):  # reached only for a slot left unset
        if name not in ("_masks", "opens"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = (_canonical_masks(_up_sets(self._rows)) if name == "_masks"
                 else tuple(PointSet(self.n, mask) for mask in self._masks))
        object.__setattr__(self, name, value)
        return value

    @property
    def open_masks(self) -> tuple[int, ...]:
        return self._masks

    def is_open(self, s: "PointSet | Iterable[int]") -> bool:
        return _as_mask(self.n, s) in self._masks

    def __repr__(self) -> str:
        return f"FiniteTopology(n={self.n}, opens={len(self.opens)})"


def _topology_arg(topology: FiniteTopology) -> FiniteTopology:
    """``topology``, if it is a :class:`FiniteTopology`; else :class:`SpaceMismatch`."""
    return instance(topology, FiniteTopology, SpaceMismatch, "finite topology")


def _topology(n: int, rows: tuple[int, ...], masks: tuple[int, ...] | None = None) -> FiniteTopology:
    """The topology with these preorder rows and, if given, their canonical open
    masks, built unchecked; it derives what it is not given on first read."""
    topology = object.__new__(FiniteTopology)
    object.__setattr__(topology, "n", n)
    object.__setattr__(topology, "_rows", rows)
    if masks is not None:
        object.__setattr__(topology, "_masks", masks)
    return topology


def _from_rows(n: int, rows: tuple[int, ...]) -> FiniteTopology:
    """The topology whose minimal rows are the preorder rows ``rows``: every
    union of them.  Raises :class:`TooLarge` past ``MAX_OPENS`` open sets."""
    return _topology(n, rows, _canonical_masks(_up_sets(rows)))


def validate_topology(n: int, family: Iterable["PointSet | Iterable[int]"]) -> FiniteTopology:
    """Check that ``family`` is a topology on {0..n-1} and canonicalize it.

    The family is a topology iff it holds the empty set and ``u | N(a)`` for
    every member u and every point a, where N(a) is the intersection of the
    members containing a (the full set if none does).  It then holds every
    union of the N(a), the full set among them, and each member is the union
    of the N(a) of its points, so it is closed under union and intersection.
    That is O(n * |family|), stopping at the first union missing.  Only a
    rejected family is scanned pair by pair, so that :class:`InvalidTopology`
    names every defect found and the first failing pair in canonical order.
    Raises :class:`TooLarge` past ``MAX_OPENS`` distinct sets, and for a
    rejected family past ``REJECT_MAX_OPENS``, before the scan.
    """
    _check_n(n)
    return _validated(n, [_as_mask(n, s) for s in collection(family, PointOutOfRange)])


def _validated(n: int, masks: Iterable[int]) -> FiniteTopology:
    """:func:`validate_topology` of masks known to fit in n points, n checked."""
    masks = _canonical_masks(masks)
    if len(masks) > MAX_OPENS:
        raise TooLarge(f"more than {MAX_OPENS} open sets")
    full = (1 << n) - 1
    mask_set = set(masks)
    rows = _rows_from_masks(n, masks)
    if 0 in mask_set and all(mask_set.issuperset(map(or_, masks, repeat(row)))
                             for row in set(rows)):
        return _topology(n, rows, masks)
    if len(masks) > REJECT_MAX_OPENS:
        raise TooLarge(f"not a topology; defects are located only in families of up "
                       f"to {REJECT_MAX_OPENS} open sets, this one has {len(masks)}")

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
                    first=tuple(_points(u)), second=tuple(_points(v)))
            if intersection_issue is None and (u & v) not in mask_set:
                intersection_issue = NotClosedUnderIntersection(
                    first=tuple(_points(u)), second=tuple(_points(v)))
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
    return _generated(n, [_as_mask(n, s) for s in collection(subbasis, PointOutOfRange)])


def _generated(n: int, masks: Sequence[int]) -> FiniteTopology:
    """:func:`generate_from_subbasis` of masks known to fit in n points, n checked."""
    return _from_rows(n, _rows_from_masks(n, masks))


def minimal_neighborhood(topology: FiniteTopology, a: int) -> PointSet:
    """Intersection of all open sets containing ``a`` (open, since finite)."""
    _check_point(_topology_arg(topology).n, a)
    return PointSet(topology.n, topology._rows[a])


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


def _point_closures(topology: FiniteTopology) -> tuple[int, ...]:
    """``closures[x]`` = {a : x in N(a)}, the closure of the point x."""
    rows = _topology_arg(topology)._rows
    return tuple(sum(1 << a for a, row in enumerate(rows) if row >> x & 1)
                 for x in range(len(rows)))


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
    preorder is the same data as a finite topology.  The constructor checks
    outside input; ``_preorder`` builds those the package derives, unchecked.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[int]):
        _check_n(n)
        rows = tuple(collection(rows, PointOutOfRange))
        if len(rows) != n:
            raise PointOutOfRange(f"expected {n} rows, got {len(rows)}")
        full = (1 << n) - 1
        for a, row in enumerate(rows):
            if not is_int(row) or not 0 <= row <= full:
                raise PointOutOfRange(f"row {a} does not fit in {n} bits")
            if not row >> a & 1:
                raise NotReflexive(f"{a} <= {a} fails")
        for a, row in enumerate(rows):
            for b in _points(row):
                if rows[b] & ~row:
                    c = _points(rows[b] & ~row)[0]
                    raise NotTransitive(f"{a} <= {b} and {b} <= {c} but not {a} <= {c}")
        self._assign(n, rows)

    def leq(self, a: int, b: int) -> bool:
        _check_point(self.n, a)
        _check_point(self.n, b)
        return bool(self.rows[a] >> b & 1)

    def matrix(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(tuple(bool(row >> b & 1) for b in range(self.n))
                     for row in self.rows)

    @classmethod
    def from_matrix(cls, matrix: Iterable[Iterable[bool]]) -> "Preorder":
        mat = [list(collection(r, PointOutOfRange)) for r in collection(matrix, PointOutOfRange)]
        if any(len(r) != len(mat) for r in mat):
            raise PointOutOfRange("relation matrix must be square")
        for a, r in enumerate(mat):
            for b, v in enumerate(r):
                if not (isinstance(v, int) and 0 <= v <= 1):  # a bool, 0 or 1
                    raise PointOutOfRange(f"matrix entry ({a}, {b}) must be True, False, "
                                          f"0 or 1, got {shown(v)}")
        return cls(len(mat), [sum(v << b for b, v in enumerate(r)) for r in mat])


def _preorder(n: int, rows: tuple[int, ...]) -> Preorder:
    """The preorder with these rows, known reflexive and transitive, built unchecked;
    once per walk leaf, so its slots are set directly, at half the cost of ``_assign``."""
    preorder = object.__new__(Preorder)
    object.__setattr__(preorder, "n", n)
    object.__setattr__(preorder, "rows", rows)
    return preorder


def specialization_preorder(topology: FiniteTopology) -> Preorder:
    """a <= b iff b belongs to the minimal neighborhood of a.  The rows of any family
    are a preorder: a is in every set holding a, and b in N(a) puts N(b) in N(a)."""
    return _preorder(_topology_arg(topology).n, topology._rows)


def topology_from_preorder(preorder: Preorder) -> FiniteTopology:
    """All up-closed sets of the preorder, i.e. all unions of its rows.

    Inverse of :func:`specialization_preorder` in both directions.  Raises
    :class:`TooLarge` past ``MAX_OPENS`` open sets.
    """
    instance(preorder, Preorder, SpaceMismatch, "preorder")
    return _from_rows(preorder.n, preorder.rows)


class SubspaceResult(NamedTuple):
    topology: FiniteTopology
    labels: tuple[int, ...]  # labels[i] = original point carried by new index i


def subspace(topology: FiniteTopology, points: "PointSet | Iterable[int]") -> SubspaceResult:
    """Trace topology {U ∩ S : U open}, reindexed onto {0..|S|-1}.

    Its minimal rows are N(s) ∩ S for s in S, renumbered, and its opens are
    their unions.  The order-preserving point map is returned alongside so
    reports can refer to the original labels.
    """
    s_mask = _as_mask(_topology_arg(topology).n, points)
    if s_mask == 0:
        raise EmptySubset("subspace carrier must be nonempty")
    labels = tuple(_points(s_mask))
    rows = tuple(sum(1 << i for i, b in enumerate(labels) if topology._rows[a] >> b & 1)
                 for a in labels)
    return SubspaceResult(_from_rows(len(labels), rows), labels)
