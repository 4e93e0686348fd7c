"""Named example topologies and the claims each one makes.

``CLAIMS`` holds every construction's claims, the one place they are written
down, and ``_checked`` the one place they are evaluated, on one
``analysis_report``.  Each constructor checks all of its claims before
returning and raises ``ConstructionClaimError`` on the first false one, so
importing and calling these doubles as a regression test of the claimed
Hausdorff numbers, and ``hausnum example NAME --verify`` reports the verdicts
the constructor reached.  Point naming for the four-point space is fixed as
(w, x, y, z) = (0, 1, 2, 3).
"""

from __future__ import annotations

from .core import FiniteTopology, _check_n, generate_from_subbasis, validate_topology
from .errors import BadParameter, ConstructionClaimError, ParseError
from .jsonio import topology_to_dict
from .limits import is_int, shown
from .separation import analysis_report


def _hausdorff_claims(h: int) -> list:
    return [(f"hausdorff number is {h}", lambda r: r["hausdorff_number"] == h),
            (f"{h}-hausdorff", lambda r: r["hausdorff_number"] <= h)]


_NOT_DISCRETE = ("not discrete", lambda r: not r["discrete"])

# Kind -> the claims of that construction on n points, in the order
# ``example --verify`` reports them: (label, predicate on the
# ``analysis_report`` dict).
CLAIMS = {
    "three-point": lambda n: _hausdorff_claims(3) + [
        ("not hausdorff", lambda r: not r["hausdorff"]),
        ("compact", lambda r: r["compact"])],
    "four-point": lambda n: _hausdorff_claims(3) + [
        _NOT_DISCRETE,
        ("t0 but not t1", lambda r: r["t0"] and not r["t1"])],
    # at n = 2 both blocks are singletons: the discrete space
    "two-block": lambda n: _hausdorff_claims(n) + ([_NOT_DISCRETE] if n >= 3 else []),
    "doubled": lambda n: _hausdorff_claims(3) + [_NOT_DISCRETE],
}


def _checked(kind: str, topology: FiniteTopology) -> FiniteTopology:
    """``topology``, once every claim of ``kind`` holds on its one ``analysis_report``."""
    report = analysis_report(topology)
    for label, holds in CLAIMS[kind](topology.n):
        if not holds(report):
            raise ConstructionClaimError(
                f"{kind} on {topology.n} points fails its claim {label!r}")
    return topology


def three_point_example() -> FiniteTopology:
    """The 3-point space {∅, {0}, {1,2}, X}: Hausdorff number 3, compact,
    yet not Hausdorff; the smallest space separating those notions."""
    return _checked("three-point", validate_topology(3, [[], [0], [1, 2], [0, 1, 2]]))


def two_block_topology(n: int, x0: int = 0) -> FiniteTopology:
    """{∅, {x0}, X∖{x0}, X} on n points: Hausdorff number exactly n.

    Non-discrete for n >= 3; at n = 2 both blocks are singletons and the
    topology degenerates to the discrete one.
    """
    if is_int(n) and n < 2:
        raise BadParameter(f"need at least 2 points, got {shown(n, str)}")
    _check_n(n)  # a non-int n too, before any list of n points is built
    if not is_int(x0) or not 0 <= x0 < n:
        raise BadParameter(f"base point {shown(x0, str)} not in 0..{n - 1}")
    full = list(range(n))
    rest = [p for p in full if p != x0]
    return _checked("two-block", validate_topology(n, [[], [x0], rest, full]))


def filtered_four_point() -> FiniteTopology:
    """Four points (w,x,y,z) = (0,1,2,3): all supersets of {y} plus
    ∅, {x}, {z}, {x,z}.  Hausdorff number 3, not discrete, T0 but not T1."""
    supersets_of_y = [[2], [0, 2], [1, 2], [2, 3],
                      [0, 1, 2], [0, 2, 3], [1, 2, 3], [0, 1, 2, 3]]
    extras = [[], [1], [3], [1, 3]]
    return _checked("four-point", validate_topology(4, supersets_of_y + extras))


def doubled_point_topology(n: int, x0: int = 0, x1: int = 1) -> FiniteTopology:
    """Generated by the basis {{x} : x != x0} ∪ {{x0, x1}} on n >= 3 points.

    Hausdorff number exactly 3 at every size: the only non-separable pair is
    {x0, x1}, and x0 is the only point without an open singleton.
    """
    if is_int(n) and n < 3:
        raise BadParameter(f"need at least 3 points, got {shown(n, str)}")
    _check_n(n)
    if any(not is_int(x) or not 0 <= x < n for x in (x0, x1)):
        raise BadParameter(f"special points must lie in 0..{n - 1}")
    if x0 == x1:
        raise BadParameter("the two special points must differ")
    basis = [[x] for x in range(n) if x != x0] + [sorted((x0, x1))]
    return _checked("doubled", generate_from_subbasis(n, basis))


def build_example(name: str) -> tuple[str, FiniteTopology]:
    """Build a construction from its CLI name.

    Accepted names: ``three-point``, ``four-point``, ``two-block:N``,
    ``doubled:N``; the kind, a key of ``CLAIMS``, is the part before the
    colon.  Returns the normalized name and the topology.
    """
    if name == "three-point":
        return name, three_point_example()
    if name == "four-point":
        return name, filtered_four_point()
    for prefix, builder in (("two-block:", two_block_topology),
                            ("doubled:", doubled_point_topology)):
        if isinstance(name, str) and name.startswith(prefix):
            try:
                n = int(name[len(prefix):])
            except ValueError:
                raise ParseError(f"bad size in example name {name!r}") from None
            return f"{prefix}{n}", builder(n)
    raise ParseError(
        f"unknown example {shown(name)}; expected three-point, four-point, "
        "two-block:N, or doubled:N")


def export_example(name: str) -> dict:
    """Topology JSON document for a named construction."""
    normalized, topology = build_example(name)
    return topology_to_dict(topology, name=normalized)
