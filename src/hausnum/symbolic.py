"""Decidable symbolic model of the doubled-interval spaces.

The carrier is the unit interval on the base line together with a column of
extra points stacked above 1/2 (finitely many, or countably many via the
OMEGA sentinel).  Base points get horizontal interval neighborhoods clipped
to [0,1]; each stacked point gets itself plus a horizontal interval around
1/2, punctured at 1/2 in the T1 variant and unpunctured otherwise.

Every basic neighborhood has one base-line description ``(lo, hi,
punctured)``: the open interval (c - r, c + r) or (1/2 - 1/k, 1/2 + 1/k)
before clipping, minus 1/2 if punctured.  Membership and intersection read
only that triple: every centre lies in [0,1] and every radius is positive,
so the clipped intervals meet iff max(0, lows) < min(1, highs), and no end
needs a strictness flag.

All coordinates are exact rationals and every verdict ships a witness or a
certificate that re-verifies by exact interval arithmetic; no floats appear
anywhere in this module.

Separability of a finite point set reduces to one rule: a set (of size >= 2)
has neighborhoods with empty total intersection exactly when it is NOT
contained in the hub {base 1/2} ∪ {stacked points}, because all hub
neighborhoods share base points arbitrarily close to 1/2, while any other
base point can be walled off by a small enough interval.  The rule is proved
by the geometry but also guarded at test time by a bounded brute-force
witness search that knows nothing about it.
"""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction
from typing import Iterable, Union

from ._records import FrozenRecord
from .errors import (
    BadParameter,
    DuplicatePoints,
    ParseError,
    SetTooSmall,
    SpaceMismatch,
)
from .limits import COORDINATE_MAX_DIGITS, collection, instance, is_int, shown

HALF = Fraction(1, 2)


class _Omega:
    """Sentinel: countably many stacked points."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "omega"


OMEGA = _Omega()


class BugEyedSpace(FrozenRecord):
    """Unit interval plus ``vertical_count`` points stacked above 1/2.

    ``t1_variant`` selects punctured stacked-point neighborhoods (the space
    is then T1); the unpunctured variant is not T1 because every stacked
    neighborhood swallows the base point at 1/2.
    """

    __slots__ = ("vertical_count", "t1_variant")

    def __init__(self, vertical_count: "int | _Omega", t1_variant: bool = True):
        v = vertical_count
        if v is not OMEGA and (not is_int(v) or v < 1):
            raise BadParameter(
                f"vertical count must be a positive integer or OMEGA, got {shown(v)}")
        if type(t1_variant) is not bool:
            raise BadParameter(f"t1_variant must be True or False, got {shown(t1_variant)}")
        self._assign(vertical_count, t1_variant)

    def has_vertical(self, index: int) -> bool:
        if not is_int(index):
            raise BadParameter(f"vertical index must be an integer, got {shown(index)}")
        return index >= 1 and (self.vertical_count is OMEGA or index <= self.vertical_count)


class BasePoint(FrozenRecord):
    """⟨q, 0⟩ on the base line, q an exact rational in [0,1]."""

    __slots__ = ("coordinate",)

    def __init__(self, coordinate: Fraction):
        q = _fraction(coordinate, "base point: its coordinate")
        if not 0 <= q <= 1:
            raise BadParameter(f"base coordinate must lie in [0,1], got {shown(q, str)}")
        self._assign(q)


class VerticalPoint(FrozenRecord):
    """⟨1/2, 1/m⟩, the m-th stacked point (m >= 1)."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        if not is_int(index) or index < 1:
            raise BadParameter(f"vertical index must be a positive integer, got {shown(index)}")
        self._assign(index)


SymbolicPoint = Union[BasePoint, VerticalPoint]


def Base(q) -> BasePoint:
    return BasePoint(q)


def Vertical(m: int) -> VerticalPoint:
    return VerticalPoint(m)


def _space(space: BugEyedSpace) -> BugEyedSpace:
    return instance(space, BugEyedSpace, SpaceMismatch, "bug-eyed space")


def _point(p: SymbolicPoint) -> SymbolicPoint:
    return instance(p, (BasePoint, VerticalPoint), SpaceMismatch, "symbolic point")


def _check_point(space: BugEyedSpace, p: SymbolicPoint) -> None:
    _space(space)
    if isinstance(_point(p), VerticalPoint) and not space.has_vertical(p.index):
        raise SpaceMismatch(
            f"vertical point {shown(p.index, str)} outside a space with "
            f"{shown(space.vertical_count)} stacked points")


class BallNeighborhood(FrozenRecord):
    """((q - ε, q + ε) ∩ [0,1]) × {0}: the base-line trace of an ε-ball."""

    __slots__ = ("space", "owner", "radius")

    def __init__(self, space: BugEyedSpace, owner: BasePoint, radius: Fraction):
        radius = _fraction(radius, "radius: its value")
        if radius <= 0:
            raise BadParameter(f"radius must be positive, got {shown(radius, str)}")
        _check_point(space, instance(owner, BasePoint, SpaceMismatch, "base point"))
        self._assign(space, owner, radius)


class VerticalNeighborhood(FrozenRecord):
    """The owner itself plus the interval (1/2 - 1/k, 1/2 + 1/k) on the base
    line, punctured at 1/2 exactly in the space's T1 variant."""

    __slots__ = ("space", "owner", "k")

    def __init__(self, space: BugEyedSpace, owner: VerticalPoint, k: int):
        if not is_int(k) or k < 1:
            raise BadParameter(f"neighborhood parameter must be a positive integer, got {shown(k)}")
        _check_point(space, instance(owner, VerticalPoint, SpaceMismatch, "vertical point"))
        self._assign(space, owner, k)


BasisNeighborhood = Union[BallNeighborhood, VerticalNeighborhood]


def _neighborhood(nbhd: BasisNeighborhood, space: BugEyedSpace | None = None):
    """``nbhd`` if it is a basis neighborhood, of ``space`` when one is given."""
    instance(nbhd, (BallNeighborhood, VerticalNeighborhood), SpaceMismatch,
             "basis neighborhood")
    if space is not None and nbhd.space != space:
        raise SpaceMismatch("neighborhoods from different spaces")
    return nbhd


def neighborhood_of(space: BugEyedSpace, p: SymbolicPoint, param) -> BasisNeighborhood:
    """Basis neighborhood of ``p``: radius for base points, k for stacked ones."""
    _check_point(space, p)
    if isinstance(p, BasePoint):
        return BallNeighborhood(space, p, param)
    return VerticalNeighborhood(space, p, param)


def _base_line(nbhd: BasisNeighborhood) -> tuple[Fraction, Fraction, bool]:
    """(lo, hi, punctured): the neighborhood's open base-line interval
    (lo, hi) before clipping to [0,1], minus 1/2 if punctured."""
    if isinstance(nbhd, BallNeighborhood):
        c, r = nbhd.owner.coordinate, nbhd.radius
        return c - r, c + r, False
    step = Fraction(1, nbhd.k)
    return HALF - step, HALF + step, nbhd.space.t1_variant


def membership(nbhd: BasisNeighborhood, p: SymbolicPoint) -> bool:
    """Exact decision of p ∈ nbhd."""
    _check_point(_neighborhood(nbhd).space, p)
    if isinstance(p, VerticalPoint):
        return isinstance(nbhd, VerticalNeighborhood) and p.index == nbhd.owner.index
    lo, hi, punctured = _base_line(nbhd)
    return lo < p.coordinate < hi and not (punctured and p.coordinate == HALF)


def intersection_nonempty(nbhds: Iterable[BasisNeighborhood]) -> SymbolicPoint | None:
    """A symbolic point in the common intersection, or None when empty.

    Whenever the intersection is nonempty it contains a base point (two
    stacked-point neighborhoods only share base-line points unless they have
    the same owner, and same-owner intervals always overlap near 1/2), so
    the returned witness is always a rational base point: the midpoint of
    the common interval, or its quarter point if the midpoint is a removed
    1/2.
    """
    nbhds = list(collection(nbhds, BadParameter))
    if not nbhds:
        raise BadParameter("need at least one neighborhood")
    space = None
    for nb in nbhds:
        space = _neighborhood(nb, space).space
    lows, highs, punctures = zip(*map(_base_line, nbhds))
    # Fraction bounds keep the midpoint exact when every interval covers [0,1]
    lo, hi = max(Fraction(0), *lows), min(Fraction(1), *highs)
    if lo >= hi:
        return None
    q = (lo + hi) / 2
    if q == HALF and any(punctures):
        q = lo + (hi - lo) / 4
    return BasePoint(q)


class HubCertificate(FrozenRecord):
    """Why a set is non-separable: it sits inside the hub over 1/2."""

    __slots__ = ("description",)

    def __init__(self, description: str):
        self._assign(description)

    def to_dict(self) -> dict:
        return {"kind": "hub", "description": self.description}


class SeparabilityVerdict(FrozenRecord):
    __slots__ = ("separable", "witness", "certificate")

    def __init__(self, separable: bool,
                 witness: tuple[tuple[SymbolicPoint, BasisNeighborhood], ...] | None,
                 certificate: HubCertificate | None):
        self._assign(separable, witness, certificate)

    def to_dict(self) -> dict:
        if self.separable:
            return {
                "separable": True,
                "witness": [
                    {"point": format_point(p), "neighborhood": _neighborhood_dict(nb)}
                    for p, nb in self.witness
                ],
            }
        return {"separable": False, "certificate": self.certificate.to_dict()}


def separable(space: BugEyedSpace, points: Iterable[SymbolicPoint]) -> SeparabilityVerdict:
    """Decide separability of a finite point set, with checked witnesses.

    Separable iff the set contains two distinct base points, or exactly one
    base point that is not 1/2.  Witnesses: half-gap balls around the two
    lowest base points, or one ball kept clear of the hub intervals plus
    matching stacked-point parameters.  Every witness is re-verified through
    :func:`intersection_nonempty` before being returned.
    """
    pts = list(collection(points, BadParameter))
    if len(pts) < 2:
        raise SetTooSmall("separability queries need at least two points")
    # each member's kind before the duplicate test hashes it, its space after
    if len(set(map(_point, pts))) != len(pts):
        raise DuplicatePoints("points must be pairwise distinct")
    for p in pts:
        _check_point(space, p)

    bases = sorted(p.coordinate for p in pts if isinstance(p, BasePoint))
    if len(bases) >= 2:
        radius, k = (bases[1] - bases[0]) / 2, 1
    elif len(bases) == 1 and bases[0] != HALF:
        gap = abs(bases[0] - HALF)
        radius, k = gap / 2, math.ceil(Fraction(2) / gap)
    else:
        certificate = HubCertificate(
            "every member is the base point 1/2 or a stacked point; all of "
            "their basic neighborhoods share base points arbitrarily close to 1/2")
        return SeparabilityVerdict(False, None, certificate)

    witness = tuple(
        (p, BallNeighborhood(space, p, radius) if isinstance(p, BasePoint)
         else VerticalNeighborhood(space, p, k))
        for p in pts)
    if any(not membership(nb, p) for p, nb in witness) or \
            intersection_nonempty([nb for _, nb in witness]) is not None:
        raise AssertionError("constructed witness failed exact re-verification")
    return SeparabilityVerdict(True, witness, None)


class Cardinal(FrozenRecord):
    """Finite value or omega_1, ordered with every finite below omega_1."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: int | None = None):
        if not (kind == "finite" and is_int(value) and value >= 0
                or kind == "omega_1" and value is None):
            raise BadParameter(f"a cardinal is ('finite', an integer >= 0) or "
                               f"('omega_1', None), got ({shown(kind)}, {shown(value)})")
        self._assign(kind, value)

    def _order(self) -> tuple:
        return self.kind == "omega_1", self.value  # (False, k) < (True, None)

    def __lt__(self, other: "Cardinal") -> bool:
        return self._order() < other._order() if isinstance(other, Cardinal) else NotImplemented

    def __le__(self, other: "Cardinal") -> bool:
        return self._order() <= other._order() if isinstance(other, Cardinal) else NotImplemented

    def to_dict(self) -> dict:
        if self.kind == "finite":
            return {"kind": "finite", "value": self.value}
        return {"kind": "omega_1"}


def Finite(k: int) -> Cardinal:
    return Cardinal("finite", k)


OMEGA_ONE = Cardinal("omega_1")


def hausdorff_number_symbolic(space: BugEyedSpace) -> Cardinal:
    """Hausdorff number of the space, as an exact symbolic cardinal.

    With v stacked points the largest non-separable set is the hub
    {base 1/2} ∪ {all stacked points} of size v + 1, so H = v + 2.  With
    countably many stacked points no finite or countable bound works (the
    stacked sequence itself is non-separable) while every uncountable set
    contains two distinct base points, so H = omega_1.
    """
    if _space(space).vertical_count is OMEGA:
        return OMEGA_ONE
    return Finite(space.vertical_count + 2)


def largest_nonseparable_set(space: BugEyedSpace) -> list[SymbolicPoint] | None:
    """The extremal non-separable set for v stacked points, a list of v + 1 points
    with no cap on v (1.4 s and a 106 MB peak RSS at v = 10**6 on a 2-vCPU VM);
    None for OMEGA (the extremal set is the infinite stacked sequence)."""
    if _space(space).vertical_count is OMEGA:
        return None
    return [BasePoint(HALF)] + [VerticalPoint(m)
                                for m in range(1, space.vertical_count + 1)]


def _excluding_neighborhood(space: BugEyedSpace, owner: SymbolicPoint,
                            other: SymbolicPoint) -> BasisNeighborhood | None:
    """A basis neighborhood of ``owner`` avoiding ``other``, if any exists."""
    if isinstance(owner, BasePoint):
        if isinstance(other, VerticalPoint):
            return BallNeighborhood(space, owner, Fraction(1))
        gap = abs(owner.coordinate - other.coordinate)
        return BallNeighborhood(space, owner, gap / 2)
    if isinstance(other, VerticalPoint):
        return VerticalNeighborhood(space, owner, 1)
    if other.coordinate == HALF:
        if space.t1_variant:
            return VerticalNeighborhood(space, owner, 1)
        return None  # every unpunctured interval contains the base 1/2
    k = math.ceil(Fraction(1) / abs(other.coordinate - HALF))
    return VerticalNeighborhood(space, owner, k)


class T1Result(FrozenRecord):
    __slots__ = ("holds", "first_excludes_second", "second_excludes_first", "explanation")

    def __init__(self, holds: bool, first_excludes_second: BasisNeighborhood | None,
                 second_excludes_first: BasisNeighborhood | None, explanation: str | None):
        self._assign(holds, first_excludes_second, second_excludes_first, explanation)

    def to_dict(self, p: SymbolicPoint, q: SymbolicPoint) -> dict:
        doc = {"pair": [format_point(p), format_point(q)], "t1": self.holds}
        if self.holds:
            doc["witnesses"] = [
                {"point": format_point(p), "excludes": format_point(q),
                 "neighborhood": _neighborhood_dict(self.first_excludes_second)},
                {"point": format_point(q), "excludes": format_point(p),
                 "neighborhood": _neighborhood_dict(self.second_excludes_first)},
            ]
        else:
            doc["explanation"] = self.explanation
        return doc


def t1_status(space: BugEyedSpace, p: SymbolicPoint, q: SymbolicPoint) -> T1Result:
    """Mutual exclusion test for a pair: each point needs a basis
    neighborhood missing the other.  Fails only in the unpunctured variant,
    in the stacked-point-to-base-1/2 direction."""
    _check_point(space, p)
    _check_point(space, q)
    if p == q:
        raise DuplicatePoints("the two points must differ")
    forward = _excluding_neighborhood(space, p, q)
    backward = _excluding_neighborhood(space, q, p)
    if forward is not None and backward is not None:
        for nbhd, inside, outside in ((forward, p, q), (backward, q, p)):
            if not membership(nbhd, inside) or membership(nbhd, outside):
                raise AssertionError("exclusion witness failed re-verification")
        return T1Result(True, forward, backward, None)
    bad_owner, bad_other = (p, q) if forward is None else (q, p)
    return T1Result(
        False, None, None,
        f"every basic neighborhood of {format_point(bad_owner)} contains "
        f"{format_point(bad_other)}")


def restrict(space: BugEyedSpace, n: int) -> BugEyedSpace:
    """Subspace keeping the base line and the first n stacked points."""
    if not is_int(n) or n < 1:
        raise BadParameter(f"need a positive number of stacked points, got {shown(n)}")
    if _space(space).vertical_count is OMEGA:
        return BugEyedSpace(n, space.t1_variant)
    return BugEyedSpace(min(space.vertical_count, n), space.t1_variant)


def grid_witness_search(space: BugEyedSpace, points: Iterable[SymbolicPoint],
                        max_param: int = 64):
    """Bounded brute-force witness search, independent of the decision rule.

    Tries the uniform parameter j = 1..max_param (radius 1/j for base
    points, parameter j for stacked points) and returns the first choice
    whose total intersection is exactly empty.  Neighborhoods shrink as j
    grows, so the finest uniform choice dominates every mixed choice from
    the same grid: returning None means no grid choice separates the set.
    The time is linear in ``max_param``: 2.3-2.9 s at 40,000 on a 2-vCPU VM.
    """
    if not is_int(max_param) or max_param < 1:
        raise BadParameter(f"grid size must be a positive integer, got {shown(max_param)}")
    pts = list(collection(points, BadParameter))
    for j in range(1, max_param + 1):
        nbhds = [neighborhood_of(space, p, Fraction(1, j) if isinstance(p, BasePoint) else j)
                 for p in pts]
        if intersection_nonempty(nbhds) is None:
            return list(zip(pts, nbhds))
    return None


def _neighborhood_dict(nbhd: BasisNeighborhood) -> dict:
    if isinstance(nbhd, BallNeighborhood):
        return {"kind": "ball", "center": str(nbhd.owner.coordinate),
                "radius": str(nbhd.radius)}
    return {"kind": "basic", "k": nbhd.k}


def format_point(p: SymbolicPoint) -> str:
    if isinstance(p, BasePoint):
        return f"b:{shown(p.coordinate, str)}"
    return f"v:{shown(p.index, str)}"


def _check_digits(text: str, what: str) -> None:
    """Refuse text implying over ``COORDINATE_MAX_DIGITS`` digits (digits plus |exponent|)."""
    digits = sum(c.isdigit() for c in text)
    _, e, exponent = text.lower().partition("e")
    if e:
        with contextlib.suppress(ValueError):  # the caller rejects the text itself
            digits += abs(int(exponent))
    if digits > COORDINATE_MAX_DIGITS:
        raise ParseError(f"bad {what} implies more than {COORDINATE_MAX_DIGITS:,} digits")


def _fraction(value, what: str) -> Fraction:
    """``Fraction(value)``, else :class:`BadParameter` (``Fraction``'s message for text);
    never of a bool.  Text (or a ``Decimal``) is capped before it is expanded."""
    if not isinstance(value, (int, float, Fraction)):
        _check_digits(str(value), what)
    try:
        if value is not True and value is not False:
            return Fraction(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        if isinstance(value, str):
            raise BadParameter(str(exc)) from None
    raise BadParameter(f"bad {what} is {shown(value)}, not a number")


def _integer(text: str, what: str) -> int:
    """``int(text)`` under the same digit cap; ``ValueError`` where ``int`` refuses."""
    value = int(text)
    _check_digits(text, what)
    return value


def _parse_verticals(text: str) -> "int | _Omega":
    """The stacked-point count of ``--verticals``: an integer, or 'omega' in any case."""
    if text.strip().lower() == "omega":
        return OMEGA
    try:
        return _integer(text, "--verticals value")
    except ValueError:
        raise ParseError(
            f"--verticals takes a positive integer or 'omega', got {text!r}") from None


def parse_point(text: str) -> SymbolicPoint:
    """Parse ``b:<num>/<den>`` (or ``b:<int>``) and ``v:<m>``."""
    if isinstance(text, str):
        text = text.strip()
        if text.startswith("b:"):
            try:
                return BasePoint(text[2:])
            except BadParameter as exc:
                raise ParseError(f"bad base point {text!r}: {exc}") from None
        if text.startswith("v:"):
            try:
                return VerticalPoint(_integer(text[2:], "vertical point: its index"))
            except (ValueError, BadParameter) as exc:
                raise ParseError(f"bad vertical point {text!r}: {exc}") from None
    raise ParseError(f"points look like 'b:1/2' or 'v:3', got {shown(text)}")


def parse_points(text: str) -> list[SymbolicPoint]:
    if not isinstance(text, str):
        raise ParseError(f"point lists look like 'b:1/2,v:3', got {shown(text)}")
    items = [chunk for chunk in (c.strip() for c in text.split(",")) if chunk]
    if not items:
        raise ParseError("empty point list")
    return [parse_point(item) for item in items]
