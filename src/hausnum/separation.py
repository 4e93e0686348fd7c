"""Hausdorff numbers and separation axioms of finite topologies.

The Hausdorff number H of a space is the least size bound that forces point
sets to admit open neighborhoods with empty total intersection.  On a finite
space the minimal neighborhoods decide everything: a set A has no separating
family exactly when some point lies in the minimal neighborhood of every
member of A, which yields the closed form

    H = 1 + max over points x of |{a : x in minimal_neighborhood(a)}|.

``hausdorff_number`` implements that closed form; ``hausdorff_number_oracle``
transcribes the definition directly by searching over all neighborhood
choices and exists to validate the closed form, so the two share no logic.

Singletons can never be separated (one nonempty neighborhood has nonempty
intersection), hence H >= 2 always, and H = 2 on a one-point space.
"""

from __future__ import annotations

from ._records import FrozenRecord
from .core import (FiniteTopology, PointSet, _as_mask, _check_point, _point_closures, _points,
                   _topology_arg)
from .errors import BadParameter, PointOutOfRange, SetTooSmall, SpaceMismatch, TooLarge
from .limits import ORACLE_MAX_POINTS, collection, instance, is_int, shown


class SeparationWitness(FrozenRecord):
    """One open neighborhood per queried point, with empty intersection."""

    __slots__ = ("assignments",)

    def __init__(self, assignments: tuple[tuple[int, PointSet], ...]):
        self._assign(assignments)


class SeparationDecision(FrozenRecord):
    # certificate: a point inside every open meeting the queried set
    __slots__ = ("separable", "witness", "certificate")

    def __init__(self, separable: bool, witness: SeparationWitness | None,
                 certificate: int | None):
        self._assign(separable, witness, certificate)


class HausdorffNumber(FrozenRecord):
    __slots__ = ("value", "largest_nonseparable")

    def __init__(self, value: int, largest_nonseparable: PointSet):
        self._assign(value, largest_nonseparable)


def is_separable(topology: FiniteTopology, points: "PointSet | object") -> SeparationDecision:
    """Decide whether the points admit opens with empty total intersection.

    The returned witness assigns each point its minimal neighborhood, which
    suffices: shrinking every choice can only shrink the intersection.  A
    non-separable verdict carries a certificate point contained in every
    open that contains any member.
    """
    a_mask = _as_mask(_topology_arg(topology).n, points)
    if a_mask.bit_count() < 2:
        raise SetTooSmall("separability queries need at least two points")

    rows = topology._rows
    members = _points(a_mask)
    common = (1 << topology.n) - 1
    for a in members:
        common &= rows[a]

    if common:
        return SeparationDecision(False, None, _points(common)[0])

    witness = SeparationWitness(tuple((a, PointSet(topology.n, rows[a])) for a in members))
    return SeparationDecision(True, witness, None)


def verify_witness(topology: FiniteTopology, points: "PointSet | object",
                   witness: SeparationWitness) -> bool:
    """Independent witness checker, straight from the definition.

    The witness's assignments are read as a collection of (point, point set)
    pairs, each point and set as the core reads them (:class:`PointOutOfRange`).
    """
    n = _topology_arg(topology).n
    a_mask = _as_mask(n, points)
    pairs = []
    for pair in collection(instance(witness, SeparationWitness, SpaceMismatch,
                                    "separation witness").assignments, PointOutOfRange):
        pair = tuple(collection(pair, PointOutOfRange))
        if len(pair) != 2:
            raise PointOutOfRange(f"expected a (point, point set) pair, got {shown(pair)}")
        _check_point(n, pair[0])
        pairs.append((pair[0], _as_mask(n, pair[1])))
    if {a for a, _ in pairs} != set(_points(a_mask)):
        return False
    open_masks = set(topology.open_masks)
    common = (1 << n) - 1
    for a, u in pairs:
        if u not in open_masks or not u >> a & 1:
            return False
        common &= u
    return common == 0


def hausdorff_number(topology: FiniteTopology) -> HausdorffNumber:
    """Closed-form Hausdorff number via minimal neighborhoods.

    A set is non-separable iff it fits inside S_x = {a : x in N(a)} for some
    witness point x, so H = 1 + max |S_x|; the maximizing S_x is the largest
    non-separable set.
    """
    closures = _point_closures(topology)
    n = topology.n
    best_x = max(range(n), key=lambda x: closures[x].bit_count())
    return HausdorffNumber(1 + closures[best_x].bit_count(),
                           PointSet(n, closures[best_x]))


def _choice_separable(open_masks: tuple[int, ...], members: list[int],
                      idx: int, inter: int) -> bool:
    """Does some choice of opens (one per member, each containing its member)
    have empty intersection?  Plain depth-first search over all choices."""
    if inter == 0:
        return True
    if idx == len(members):
        return False
    a = members[idx]
    for u in open_masks:
        if u >> a & 1 and _choice_separable(open_masks, members, idx + 1, inter & u):
            return True
    return False


def hausdorff_number_oracle(topology: FiniteTopology) -> HausdorffNumber:
    """Ground-truth H by exhausting subsets and all neighborhood choices.

    Exponential in both the subset and the choice dimension; refuses n > 5.
    Kept free of minimal-neighborhood reasoning so it independently checks
    :func:`hausdorff_number`.
    """
    n = _topology_arg(topology).n
    if n > ORACLE_MAX_POINTS:
        raise TooLarge(f"oracle limited to {ORACLE_MAX_POINTS} points, got {n}")
    open_masks = topology.open_masks
    full = (1 << n) - 1

    best_set = None
    best_size = 1
    for a_mask in range(3, full + 1):
        size = a_mask.bit_count()
        if size < 2 or size <= best_size:
            continue
        if not _choice_separable(open_masks, _points(a_mask), 0, full):
            best_size = size
            best_set = a_mask
    if best_set is None:
        best_set = 1  # all sets of size >= 2 separable; a singleton attains H - 1
    return HausdorffNumber(best_size + 1, PointSet(n, best_set))


def is_n_hausdorff(topology: FiniteTopology, bound: int) -> bool:
    """True iff H(topology) <= bound."""
    if not is_int(bound) or bound < 2:
        raise BadParameter(f"Hausdorff bounds start at 2, got {shown(bound)}")
    return hausdorff_number(topology).value <= bound


class AxiomsReport(FrozenRecord):
    __slots__ = ("t0", "t1", "hausdorff", "regular", "normal", "discrete", "compact")

    def __init__(self, t0: bool, t1: bool, hausdorff: bool, regular: bool,
                 normal: bool, discrete: bool, compact: bool):
        self._assign(t0, t1, hausdorff, regular, normal, discrete, compact)


def axioms_report(topology: FiniteTopology) -> AxiomsReport:
    """Classical separation axioms, each decided from the minimal neighbourhoods.

    Finite spaces are always compact.  The open hull of a closed set C is the
    union of the minimal neighbourhoods N(c) of its points, and C contains
    the closure of each of them.  So the space is regular iff y in N(x)
    implies x in N(y) (the specialization preorder is symmetric: every
    closure equals the minimal neighbourhood), and normal iff any two points
    with disjoint closures have disjoint minimal neighbourhoods.  The
    singleton {a} is open iff N(a) = {a}, so the space is discrete iff it is
    T1.
    """
    closures = _point_closures(topology)
    n = topology.n
    rows = topology._rows
    t1 = all(rows[a] == 1 << a for a in range(n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]

    return AxiomsReport(
        t0=len(set(rows)) == n,
        t1=t1,
        hausdorff=all(rows[a] & rows[b] == 0 for a, b in pairs),
        regular=closures == rows,
        normal=all(rows[a] & rows[b] == 0 for a, b in pairs
                   if closures[a] & closures[b] == 0),
        discrete=t1,
        compact=True)


def analysis_report(topology: FiniteTopology) -> dict:
    """JSON-ready report: n, the Hausdorff number and every field of the axioms report."""
    axioms = axioms_report(topology)
    h = hausdorff_number(topology)
    return {"n": topology.n, "hausdorff_number": h.value,
            "largest_nonseparable": list(h.largest_nonseparable),
            **{field: getattr(axioms, field) for field in axioms._fields}}
