"""Value semantics of every record type, pinned type by type.

Each record is built positionally and by keyword, then compared, hashed,
assigned to, copied, pickled under every protocol and printed.  Equality holds
only between instances of one class; every record refuses assignment and
deletion and hashes like the tuple of its fields, so the two whose fields hold
a dict or a list do not hash.  The sentinel ``OMEGA`` stays itself through
every copy and pickle, and so does the space of countably many stacked points.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from hausnum.core import FiniteTopology, PointSet, Preorder
from hausnum.enumeration import CanonicalForm, CountsTable, StirlingReport
from hausnum.errors import (
    BadParameter,
    InvalidTopology,
    MissingEmptySet,
    MissingFullSet,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotReflexive,
    NotTransitive,
    PointOutOfRange,
    SpaceMismatch,
    ValidationIssue,
)
from hausnum.separation import (
    AxiomsReport,
    HausdorffNumber,
    SeparationDecision,
    SeparationWitness,
)
from hausnum.symbolic import (
    OMEGA,
    OMEGA_ONE,
    BallNeighborhood,
    BasePoint,
    BugEyedSpace,
    Cardinal,
    HubCertificate,
    SeparabilityVerdict,
    T1Result,
    VerticalNeighborhood,
    VerticalPoint,
    hausdorff_number_symbolic,
)

SPACE = BugEyedSpace(2, False)
THIRD = BasePoint(Fraction(1, 3))
STACKED = VerticalPoint(2)
BALL = BallNeighborhood(SPACE, THIRD, Fraction(1, 6))
BASIC = VerticalNeighborhood(SPACE, STACKED, 3)
SPACE_REPR = "BugEyedSpace(vertical_count=2, t1_variant=False)"
THIRD_REPR = "BasePoint(coordinate=Fraction(1, 3))"
STACKED_REPR = "VerticalPoint(index=2)"
BALL_REPR = f"BallNeighborhood(space={SPACE_REPR}, owner={THIRD_REPR}, radius=Fraction(1, 6))"
BASIC_REPR = f"VerticalNeighborhood(space={SPACE_REPR}, owner={STACKED_REPR}, k=3)"

# (class, field names, field values, repr of the record built from them)
HASHABLE = [
    (ValidationIssue, ("code",), ("missing-empty-set",),
     "ValidationIssue(code='missing-empty-set')"),
    (MissingEmptySet, ("code",), ("missing-empty-set",),
     "MissingEmptySet(code='missing-empty-set')"),
    (MissingFullSet, ("code",), ("missing-full-set",),
     "MissingFullSet(code='missing-full-set')"),
    (NotClosedUnderUnion, ("code", "first", "second"),
     ("not-closed-under-union", (0,), (1, 2)),
     "NotClosedUnderUnion(code='not-closed-under-union', first=(0,), second=(1, 2))"),
    (NotClosedUnderIntersection, ("code", "first", "second"),
     ("not-closed-under-intersection", (0, 1), ()),
     "NotClosedUnderIntersection(code='not-closed-under-intersection', "
     "first=(0, 1), second=())"),
    (PointSet, ("n", "mask"), (3, 0b110), "PointSet(3, {1, 2})"),
    (FiniteTopology, ("n", "opens"), (2, (PointSet(2, 0), PointSet(2, 1), PointSet(2, 3))),
     "FiniteTopology(n=2, opens=3)"),
    (Preorder, ("n", "rows"), (3, (0b001, 0b110, 0b110)),
     "Preorder(n=3, rows=(1, 6, 6))"),
    (SeparationWitness, ("assignments",), (((0, PointSet(2, 1)), (1, PointSet(2, 2))),),
     "SeparationWitness(assignments=((0, PointSet(2, {0})), (1, PointSet(2, {1}))))"),
    (SeparationDecision, ("separable", "witness", "certificate"), (False, None, 2),
     "SeparationDecision(separable=False, witness=None, certificate=2)"),
    (HausdorffNumber, ("value", "largest_nonseparable"), (3, PointSet(3, 6)),
     "HausdorffNumber(value=3, largest_nonseparable=PointSet(3, {1, 2}))"),
    (AxiomsReport, ("t0", "t1", "hausdorff", "regular", "normal", "discrete", "compact"),
     (True, False, False, False, True, False, True),
     "AxiomsReport(t0=True, t1=False, hausdorff=False, regular=False, normal=True, "
     "discrete=False, compact=True)"),
    (BugEyedSpace, ("vertical_count", "t1_variant"), (2, False), SPACE_REPR),
    (BasePoint, ("coordinate",), (Fraction(1, 3),), THIRD_REPR),
    (VerticalPoint, ("index",), (2,), STACKED_REPR),
    (BallNeighborhood, ("space", "owner", "radius"), (SPACE, THIRD, Fraction(1, 6)),
     BALL_REPR),
    (VerticalNeighborhood, ("space", "owner", "k"), (SPACE, STACKED, 3), BASIC_REPR),
    (HubCertificate, ("description",), ("inside the hub",),
     "HubCertificate(description='inside the hub')"),
    (SeparabilityVerdict, ("separable", "witness", "certificate"),
     (True, ((THIRD, BALL), (STACKED, BASIC)), None),
     f"SeparabilityVerdict(separable=True, witness=(({THIRD_REPR}, {BALL_REPR}), "
     f"({STACKED_REPR}, {BASIC_REPR})), certificate=None)"),
    (Cardinal, ("kind", "value"), ("finite", 4), "Cardinal(kind='finite', value=4)"),
    (T1Result, ("holds", "first_excludes_second", "second_excludes_first", "explanation"),
     (True, BALL, BASIC, None),
     f"T1Result(holds=True, first_excludes_second={BALL_REPR}, "
     f"second_excludes_first={BASIC_REPR}, explanation=None)"),
    (CanonicalForm, ("encoding",), (b"\x01\x03",), "CanonicalForm(encoding=b'\\x01\\x03')"),
]

UNHASHABLE = [
    (CountsTable, ("n", "rows", "labeled_total", "class_total", "t0_labeled_count",
                   "t0_only"),
     (2, {2: (1, 1), 3: (3, 2)}, 4, 3, 3, False),
     "CountsTable(n=2, rows={2: (1, 1), 3: (3, 2)}, labeled_total=4, class_total=3, "
     "t0_labeled_count=3, t0_only=False)"),
    (StirlingReport, ("n", "holds", "topology_count", "combination_total", "terms"),
     (2, True, 4, 4, [(1, 1, 1), (2, 1, 3)]),
     "StirlingReport(n=2, holds=True, topology_count=4, combination_total=4, "
     "terms=[(1, 1, 1), (2, 1, 3)])"),
]

ALL = HASHABLE + UNHASHABLE
OMEGA_SPACE = BugEyedSpace(OMEGA, False)
OMEGA_BASIC = VerticalNeighborhood(OMEGA_SPACE, STACKED, 3)


def ids(cases):
    return [case[0].__name__ for case in cases]


def round_trips(value):
    """``value`` after a shallow copy, a deep copy and a pickle under every protocol."""
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


@pytest.mark.parametrize("cls, names, values, text", ALL, ids=ids(ALL))
class TestEveryRecord:
    def test_positional_and_keyword_construction(self, cls, names, values, text):
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(names, values)))
        assert by_position == by_keyword
        assert tuple(getattr(by_position, name) for name in names) == values
        assert cls.__match_args__ == names

    def test_repr(self, cls, names, values, text):
        assert repr(cls(*values)) == text

    def test_equality_within_one_class(self, cls, names, values, text):
        record = cls(*values)
        assert record == cls(*values)
        assert not record != cls(*values)
        assert record != values
        assert record.__eq__(values) is NotImplemented

    def test_copy_and_pickle_round_trip(self, cls, names, values, text):
        record = cls(*values)
        for twin in round_trips(record):
            assert type(twin) is cls and twin == record


class TestFrozenRecords:
    @pytest.mark.parametrize("cls, names, values, text", HASHABLE, ids=ids(HASHABLE))
    def test_hash_is_the_hash_of_the_fields(self, cls, names, values, text):
        assert hash(cls(*values)) == hash(values)

    @pytest.mark.parametrize("cls, names, values, text", UNHASHABLE, ids=ids(UNHASHABLE))
    def test_unhashable(self, cls, names, values, text):
        with pytest.raises(TypeError):
            hash(cls(*values))

    @pytest.mark.parametrize("cls, names, values, text", ALL, ids=ids(ALL))
    def test_assignment_and_deletion_raise(self, cls, names, values, text):
        record = cls(*values)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, values[0])
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert tuple(getattr(record, name) for name in names) == values


class TestOmegaRoundTrip:
    def test_omega_stays_the_sentinel(self):
        for twin in round_trips(OMEGA):
            assert twin is OMEGA

    @pytest.mark.parametrize("value", [OMEGA_SPACE, OMEGA_BASIC], ids=["space", "neighborhood"])
    def test_omega_records_equal_themselves(self, value):
        for twin in round_trips(value):
            assert type(twin) is type(value) and twin == value

    def test_round_tripped_space_keeps_its_hausdorff_number(self):
        for twin in round_trips(OMEGA_SPACE):
            assert twin.vertical_count is OMEGA
            assert hausdorff_number_symbolic(twin) == OMEGA_ONE


class TestDefaults:
    def test_validation_issue_codes(self):
        assert MissingEmptySet() == MissingEmptySet("missing-empty-set")
        assert MissingFullSet() == MissingFullSet(code="missing-full-set")
        union = NotClosedUnderUnion(first=(0,), second=(1,))
        assert union == NotClosedUnderUnion("not-closed-under-union", (0,), (1,))
        assert NotClosedUnderUnion().first == NotClosedUnderUnion().second == ()
        assert NotClosedUnderIntersection().code == "not-closed-under-intersection"
        with pytest.raises(TypeError):
            ValidationIssue()

    def test_symbolic_defaults(self):
        assert Cardinal("omega_1") == Cardinal(kind="omega_1", value=None)
        assert repr(Cardinal("omega_1")) == "Cardinal(kind='omega_1', value=None)"
        assert BugEyedSpace(3).t1_variant is True
        assert repr(BugEyedSpace(OMEGA)) == "BugEyedSpace(vertical_count=omega, t1_variant=True)"

    def test_counts_table_and_stirling_defaults(self):
        assert CountsTable(1, {2: (1, 1)}, 1, 1, 1).t0_only is False
        first = StirlingReport(1, True, 1, 1)
        second = StirlingReport(n=1, holds=True, topology_count=1, combination_total=1)
        assert first.terms == [] and first.terms is not second.terms
        first.terms.append((1, 1, 1))
        assert second.terms == []

    def test_required_arguments(self):
        for cls in (PointSet, FiniteTopology, Preorder, HausdorffNumber, CanonicalForm,
                    BasePoint, VerticalPoint, Cardinal, CountsTable, StirlingReport):
            with pytest.raises(TypeError):
                cls()


class TestConversionsAndChecks:
    def test_base_point_and_radius_become_fractions(self):
        assert type(BasePoint(1).coordinate) is Fraction
        assert BasePoint(Fraction(1, 2)) == BasePoint(0.5)
        ball = BallNeighborhood(SPACE, THIRD, 1)
        assert type(ball.radius) is Fraction and ball == BallNeighborhood(SPACE, THIRD, Fraction(1))

    def test_constructors_still_validate(self):
        with pytest.raises(PointOutOfRange):
            PointSet(3, 8)
        with pytest.raises(PointOutOfRange):
            PointSet(0, 0)
        with pytest.raises(NotReflexive):
            Preorder(2, (1, 1))
        with pytest.raises(NotTransitive):
            Preorder(3, (0b011, 0b110, 0b100))
        with pytest.raises(PointOutOfRange):
            Preorder(2, (1,))
        for bad in (0, True, "2"):
            with pytest.raises(BadParameter):
                BugEyedSpace(bad)
        with pytest.raises(BadParameter):
            BasePoint(2)
        with pytest.raises(BadParameter):
            VerticalPoint(0)
        with pytest.raises(BadParameter):
            BallNeighborhood(SPACE, THIRD, 0)
        with pytest.raises(BadParameter):
            VerticalNeighborhood(SPACE, STACKED, 0)
        with pytest.raises(SpaceMismatch):
            VerticalNeighborhood(SPACE, VerticalPoint(3), 1)


def test_an_issue_without_a_message_is_named_by_its_code():
    assert str(InvalidTopology([ValidationIssue("x")])) == "x"


class TestEqualityAcrossClasses:
    PAIRS = [
        (MissingEmptySet(), ValidationIssue("missing-empty-set")),
        (MissingFullSet(), ValidationIssue("missing-full-set")),
        (NotClosedUnderUnion("x", (0,), (1,)), NotClosedUnderIntersection("x", (0,), (1,))),
        (SeparationDecision(True, None, None), SeparabilityVerdict(True, None, None)),
        (HubCertificate("x"), ValidationIssue("x")),
        (CanonicalForm(b"\x01"), HubCertificate(b"\x01")),
        (BasePoint(1), VerticalPoint(1)),
    ]

    @pytest.mark.parametrize("left, right", PAIRS)
    def test_equal_fields_in_different_classes_are_unequal(self, left, right):
        assert left != right and right != left
        assert not left == right

    def test_set_membership_uses_class_and_fields(self):
        issues = {MissingEmptySet(), ValidationIssue("missing-empty-set"), MissingEmptySet()}
        assert len(issues) == 2
