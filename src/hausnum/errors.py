"""Exception types shared across the package."""

from __future__ import annotations

from ._records import FrozenRecord


class TopologyError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class PointOutOfRange(TopologyError):
    code = "point-out-of-range"


class EmptySubset(TopologyError):
    code = "empty-subset"


class SetTooSmall(TopologyError):
    code = "set-too-small"


class TooLarge(TopologyError):
    code = "too-large"


class BadParameter(TopologyError):
    code = "bad-parameter"


class NotReflexive(TopologyError):
    code = "not-reflexive"


class NotTransitive(TopologyError):
    code = "not-transitive"


class SpaceMismatch(TopologyError):
    code = "space-mismatch"


class DuplicatePoints(TopologyError):
    code = "duplicate-points"


class ParseError(TopologyError):
    code = "parse-error"


class ConstructionClaimError(TopologyError):
    """A named construction failed one of its eagerly checked claims."""

    code = "construction-claim"


class ValidationIssue(FrozenRecord):
    """One structural defect found while validating an open-set family."""

    __slots__ = ("code",)

    def __init__(self, code: str):
        self._assign(code)


class MissingEmptySet(ValidationIssue):
    __slots__ = ()

    def __init__(self, code: str = "missing-empty-set"):
        self._assign(code)


class MissingFullSet(ValidationIssue):
    __slots__ = ()

    def __init__(self, code: str = "missing-full-set"):
        self._assign(code)


class NotClosedUnderUnion(ValidationIssue):
    __slots__ = ("first", "second")

    def __init__(self, code: str = "not-closed-under-union",
                 first: tuple[int, ...] = (), second: tuple[int, ...] = ()):
        self._assign(code, first, second)


class NotClosedUnderIntersection(ValidationIssue):
    __slots__ = ("first", "second")

    def __init__(self, code: str = "not-closed-under-intersection",
                 first: tuple[int, ...] = (), second: tuple[int, ...] = ()):
        self._assign(code, first, second)


class InvalidTopology(TopologyError):
    """Raised by ``validate_topology``; aggregates every defect found."""

    code = "invalid-topology"

    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("; ".join(self._describe(i) for i in self.issues))

    def issue_codes(self) -> set[str]:
        return {issue.code for issue in self.issues}

    @staticmethod
    def _describe(issue: ValidationIssue) -> str:
        if isinstance(issue, (NotClosedUnderUnion, NotClosedUnderIntersection)):
            op = "union" if isinstance(issue, NotClosedUnderUnion) else "intersection"
            return (f"family is not closed under {op}: "
                    f"{set(issue.first) or '{}'} and {set(issue.second) or '{}'}")
        if isinstance(issue, MissingEmptySet):
            return "the empty set is missing"
        if isinstance(issue, MissingFullSet):
            return "the full set is missing"
        return issue.code
