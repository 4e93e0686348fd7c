import copy
import functools
import itertools
import operator
import pickle
import random

import pytest

from hausnum.core import (
    MAX_OPENS,
    FiniteTopology,
    PointSet,
    Preorder,
    generate_from_subbasis,
    minimal_neighborhood,
    specialization_preorder,
    subspace,
    topology_from_preorder,
    validate_topology,
)
from hausnum.enumeration import enumerate_classes, enumerate_labeled, enumerate_preorders
from hausnum.errors import (
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
from hausnum.limits import REJECT_MAX_OPENS
from hausnum.separation import is_separable

from conftest import random_preorder, topo


SIERPINSKI = ((), (0,), (0, 1))
EXAMPLE_3PT = ((), (0,), (1, 2), (0, 1, 2))
CHAIN = Preorder(3, (0b111, 0b110, 0b100))  # 0 <= 1 <= 2


class TestPointSet:
    def test_set_algebra(self):
        a = PointSet.from_points(5, [0, 2, 4])
        b = PointSet.from_points(5, [1, 2])
        assert list(a | b) == [0, 1, 2, 4]
        assert list(a & b) == [2]
        assert list(a - b) == [0, 4]
        assert list(a.complement()) == [1, 3]
        assert len(a) == 3 and 4 in a and 1 not in a

    @pytest.mark.parametrize("call", [
        lambda v: PointSet.from_points(3, v), lambda v: validate_topology(3, v),
        lambda v: validate_topology(3, [v]), lambda v: generate_from_subbasis(3, [v]),
        lambda v: Preorder(1, v), lambda v: Preorder.from_matrix([v]),
    ], ids=["points", "family", "member", "subbasis-member", "rows", "matrix-row"])
    def test_non_collections_refused_with_one_message(self, call):
        for value in (5, None):
            with pytest.raises(PointOutOfRange) as info:
                call(value)
            assert str(info.value) == f"expected a collection, got {value!r}"

    def test_lazy_collections_are_read_once(self):
        assert PointSet.from_points(3, iter([0, 2])) == PointSet(3, 0b101)
        assert validate_topology(2, (s for s in ([], [0, 1]))) == topo(2, (), (0, 1))
        assert Preorder(2, iter([0b11, 0b10])) == Preorder(2, (0b11, 0b10))

    def test_point_bounds(self):
        with pytest.raises(PointOutOfRange):
            PointSet.from_points(3, [3])
        with pytest.raises(PointOutOfRange):
            PointSet(3, 1 << 3)
        with pytest.raises(PointOutOfRange):
            PointSet.from_points(0, [])
        PointSet.full(64)  # one machine word is the cap

    @pytest.mark.parametrize("point", [True, False, 3, -1, 1.0])
    @pytest.mark.parametrize("call", [
        lambda p: PointSet.from_points(3, [0, p]),
        lambda p: PointSet.singleton(3, p),
        lambda p: validate_topology(3, [[], [p], [0, 1, 2]]),
        lambda p: generate_from_subbasis(3, [[0], [p]]),
        lambda p: minimal_neighborhood(topo(3, *EXAMPLE_3PT), p),
        lambda p: CHAIN.leq(p, 2),
        lambda p: CHAIN.leq(0, p),
        lambda p: is_separable(topo(3, *EXAMPLE_3PT), [2, p]),
        lambda p: subspace(topo(3, *EXAMPLE_3PT), [2, p]),
    ], ids=["from_points", "singleton", "validate", "subbasis",
            "minimal_neighborhood", "leq-first", "leq-second", "is_separable", "subspace"])
    def test_bool_points_refused_as_out_of_range(self, call, point):
        with pytest.raises(PointOutOfRange) as info:
            call(point)
        assert str(info.value) == f"point {point!r} not in 0..2"

    @pytest.mark.parametrize("mask", [True, False, 1.0, "1"])
    def test_non_int_masks_refused_as_out_of_range(self, mask):
        with pytest.raises(PointOutOfRange) as info:
            PointSet(2, mask)
        assert str(info.value) == f"mask {mask!r} does not fit in a 2-point space"

    def test_mixed_spaces_rejected(self):
        with pytest.raises(PointOutOfRange):
            PointSet.full(3) | PointSet.full(4)
        with pytest.raises(PointOutOfRange, match="set over 4 points used in a 3-point space"):
            validate_topology(3, [PointSet.full(4)])
        # from_points reads any collection point by point, a PointSet too
        assert PointSet.from_points(3, PointSet(4, 0b11)) == PointSet(3, 0b11)
        with pytest.raises(PointOutOfRange, match=r"^point 3 not in 0\.\.2$"):
            PointSet.from_points(3, PointSet(4, 0b1000))

    def test_empty(self):
        assert PointSet.empty(3) == PointSet(3, 0) and list(PointSet.empty(3)) == []

    def test_container_protocol_for_other_kinds(self):
        s = PointSet(3, 0b011)
        assert [x in s for x in (0, 1, 2, 3, -1)] == [True, True, False, False, False]
        for value in ("a", None, 1.0, True, [0], PointSet(3, 1)):
            assert value not in s
        for op in (operator.or_, operator.and_, operator.sub):
            with pytest.raises(TypeError, match="unsupported operand"):
                op(s, 5)
        with pytest.raises(SpaceMismatch, match="^not a point set: 5$"):
            s.issubset(5)

    def test_issubset(self):
        a = PointSet.from_points(4, [1, 2])
        b = PointSet.from_points(4, [0, 1, 2])
        assert a.issubset(b) and a.issubset(a) and PointSet(4, 0).issubset(a)
        assert not b.issubset(a)
        with pytest.raises(PointOutOfRange):
            a.issubset(PointSet.from_points(5, [1, 2]))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_roundtrip_points(self, n):
        for mask in range(1 << n):
            pts = {a for a in range(n) if mask >> a & 1}
            s = PointSet.from_points(n, pts)
            assert set(s) == pts
            assert PointSet.from_points(n, s.points()) == s

    @pytest.mark.parametrize("n", range(1, 9))
    def test_complement_involution(self, n):
        for mask in range(1 << n):
            s = PointSet(n, mask)
            assert s.complement().complement() == s
            assert (s & s.complement()).mask == 0
            assert (s | s.complement()) == PointSet.full(n)


class TestValidateTopology:
    def test_three_point_example_is_valid(self):
        t = topo(3, *EXAMPLE_3PT)
        assert t.open_masks == (0, 0b001, 0b110, 0b111)

    def test_indiscrete_is_valid(self):
        t = topo(2, (), (0, 1))
        assert len(t.opens) == 2

    def test_missing_full_and_union(self):
        with pytest.raises(InvalidTopology) as err:
            topo(2, (), (0,), (1,))
        codes = err.value.issue_codes()
        assert "missing-full-set" in codes
        assert "not-closed-under-union" in codes
        union_issue = next(i for i in err.value.issues
                           if i.code == "not-closed-under-union")
        assert {union_issue.first, union_issue.second} == {(0,), (1,)}

    def test_missing_empty_set(self):
        with pytest.raises(InvalidTopology) as err:
            topo(2, (0,), (0, 1))
        assert err.value.issue_codes() == {"missing-empty-set"}

    def test_not_closed_under_intersection(self):
        with pytest.raises(InvalidTopology) as err:
            topo(3, (), (0, 1), (1, 2), (0, 1, 2))
        assert "not-closed-under-intersection" in err.value.issue_codes()

    def test_input_order_irrelevant_and_deduplicated(self):
        a = topo(3, (0, 1, 2), (1, 2), (0,), (), (0,))
        b = topo(3, *EXAMPLE_3PT)
        assert a == b

    def test_out_of_range_point(self):
        with pytest.raises(PointOutOfRange):
            validate_topology(2, [[], [0, 5], [0, 1]])


def pairwise_reference(n, masks):
    """The definition checked on every pair of distinct members, in canonical
    order: the canonical family and the issues ``validate_topology`` must
    report (none for a topology)."""
    canonical = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    present = set(canonical)
    issues = []
    if 0 not in present:
        issues.append(MissingEmptySet())
    if (1 << n) - 1 not in present:
        issues.append(MissingFullSet())
    pairs = list(itertools.combinations(canonical, 2))
    for op, issue in ((operator.or_, NotClosedUnderUnion),
                      (operator.and_, NotClosedUnderIntersection)):
        bad = next(((u, v) for u, v in pairs if op(u, v) not in present), None)
        if bad is not None:
            issues.append(issue(first=tuple(PointSet(n, bad[0])),
                                second=tuple(PointSet(n, bad[1]))))
    return tuple(canonical), issues


def matches_pairwise_reference(n, masks):
    """Assert that validate_topology agrees with the reference; True if accepted."""
    canonical, issues = pairwise_reference(n, masks)
    family = [PointSet(n, m) for m in masks]
    if not issues:
        assert validate_topology(n, family).open_masks == canonical
        return True
    with pytest.raises(InvalidTopology) as err:
        validate_topology(n, family)
    assert err.value.issues == tuple(issues)
    assert str(err.value) == str(InvalidTopology(issues))
    return False


class TestValidateAgainstPairwise:
    def test_every_family_up_to_three_points(self):
        accepted = []
        for n in range(1, 4):
            subsets = range(1 << n)
            accepted.append(sum(
                matches_pairwise_reference(n, [m for m in subsets if family >> m & 1])
                for family in range(1 << (1 << n))))
        assert accepted == [1, 4, 29]  # OEIS A000798

    @pytest.mark.parametrize("n", range(4, 9))
    def test_near_topologies(self, n, rng):
        full = (1 << n) - 1
        for _ in range(40):
            opens = list(topology_from_preorder(random_preorder(n, rng)).open_masks)
            i = rng.randrange(len(opens))
            for masks in (opens,
                          opens[:i] + opens[i + 1:],
                          opens + [rng.getrandbits(n)],
                          [u for u in opens if u != 0],
                          [u for u in opens if u != full]):
                matches_pairwise_reference(n, masks)


class TestRejectionCap:
    """A rejected family is scanned pair by pair up to ``REJECT_MAX_OPENS`` sets."""

    def test_at_the_cap_the_defects_are_named(self):
        # on 13 points: {12} and every subset of 0..11 except {0}
        family = [PointSet(13, m) for m in range(REJECT_MAX_OPENS + 1) if m != 1]
        assert len(family) == REJECT_MAX_OPENS
        with pytest.raises(InvalidTopology) as info:
            validate_topology(13, family)
        assert info.value.issues == (
            MissingFullSet(),
            NotClosedUnderUnion(first=(1,), second=(12,)),
            NotClosedUnderIntersection(first=(0, 1), second=(0, 2)))
        assert str(info.value) == (
            "the full set is missing; family is not closed under union: {1} and {12}; "
            "family is not closed under intersection: {0, 1} and {0, 2}")

    def test_at_the_cap_a_closed_family_searches_every_pair(self):
        # on 13 points: every set holding point 0, closed under both rules but for ∅
        family = [PointSet(13, m) for m in range(1, 1 << 13, 2)]
        assert len(family) == REJECT_MAX_OPENS
        with pytest.raises(InvalidTopology) as info:
            validate_topology(13, family)
        assert info.value.issues == (MissingEmptySet(),)
        assert str(info.value) == "the empty set is missing"

    def test_just_above_the_cap_is_too_large(self):
        family = [PointSet(13, m) for m in range(REJECT_MAX_OPENS + 1)]
        with pytest.raises(TooLarge) as info:
            validate_topology(13, family)
        assert str(info.value) == (
            f"not a topology; defects are located only in families of up to "
            f"{REJECT_MAX_OPENS} open sets, this one has {REJECT_MAX_OPENS + 1}")

    def test_valid_families_past_the_cap_are_accepted(self):
        discrete = validate_topology(13, [PointSet(13, m) for m in range(1 << 13)])
        assert len(discrete.opens) == 1 << 13 > REJECT_MAX_OPENS


class TestGenerateFromSubbasis:
    def test_doubled_point_basis_on_three(self):
        t = generate_from_subbasis(3, [[1], [2], [0, 1]])
        assert t.open_masks == (0, 0b010, 0b100, 0b011, 0b110, 0b111)

    def test_empty_subbasis_gives_indiscrete(self):
        t = generate_from_subbasis(2, [])
        assert t.open_masks == (0, 0b11)

    def test_singletons_generate_discrete(self):
        t = generate_from_subbasis(4, [[p] for p in range(4)])
        assert len(t.opens) == 16

    def test_result_validates(self):
        t = generate_from_subbasis(4, [[0, 1], [1, 2], [2, 3]])
        assert validate_topology(4, t.opens) == t

    def test_idempotent_on_topologies(self):
        for t in enumerate_labeled(3):
            assert generate_from_subbasis(t.n, t.opens) == t

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_fixpoint_closure(self, seed):
        # reference: close under pairwise intersection and union until stable
        rng = random.Random(seed)
        for _ in range(100):
            n = rng.randint(1, 7)
            subbasis = [rng.getrandbits(n) for _ in range(rng.randint(0, 6))]
            if subbasis and rng.random() < 0.3:
                subbasis.append(rng.choice(subbasis))
            sets = {0, (1 << n) - 1, *subbasis}
            while True:
                grown = (sets | {u & v for u in sets for v in sets}
                         | {u | v for u in sets for v in sets})
                if grown == sets:
                    break
                sets = grown
            t = generate_from_subbasis(n, [PointSet(n, m) for m in subbasis])
            assert set(t.open_masks) == sets
            assert validate_topology(n, t.opens) == t

    def test_open_family_cap(self):
        # 17 singletons generate all 2**17 subsets, past MAX_OPENS
        assert 1 << 16 <= MAX_OPENS < 1 << 17
        discrete16 = generate_from_subbasis(16, [[p] for p in range(16)])
        assert len(discrete16.opens) == 1 << 16
        assert validate_topology(16, discrete16.opens) == discrete16
        with pytest.raises(TooLarge):
            generate_from_subbasis(17, [[p] for p in range(17)])
        with pytest.raises(TooLarge):
            topology_from_preorder(Preorder(17, tuple(1 << a for a in range(17))))


class TestMinimalNeighborhood:
    def test_discrete(self):
        t = generate_from_subbasis(3, [[p] for p in range(3)])
        for a in range(3):
            assert minimal_neighborhood(t, a) == PointSet.singleton(3, a)

    def test_indiscrete(self):
        t = topo(4, (), (0, 1, 2, 3))
        for a in range(4):
            assert minimal_neighborhood(t, a) == PointSet.full(4)

    def test_filtered_four_point_w(self):
        from hausnum.constructions import filtered_four_point

        t = filtered_four_point()
        assert list(minimal_neighborhood(t, 0)) == [0, 2]

    def test_agrees_with_naive_intersection(self):
        for t in enumerate_labeled(4):
            for a in range(4):
                naive = (1 << 4) - 1
                for u in t.open_masks:
                    if u >> a & 1:
                        naive &= u
                assert minimal_neighborhood(t, a).mask == naive

    def test_out_of_range(self):
        with pytest.raises(PointOutOfRange):
            minimal_neighborhood(topo(2, (), (0, 1)), 2)


class TestPreorderCorrespondence:
    def test_discrete_gives_identity(self):
        t = generate_from_subbasis(3, [[p] for p in range(3)])
        assert specialization_preorder(t).rows == (1, 2, 4)

    def test_indiscrete_gives_all_true(self):
        t = topo(2, (), (0, 1))
        assert specialization_preorder(t).rows == (3, 3)

    def test_sierpinski(self):
        p = specialization_preorder(topo(2, *SIERPINSKI))
        assert p.leq(1, 0) and not p.leq(0, 1)
        assert p.leq(0, 0) and p.leq(1, 1)

    def test_identity_preorder_gives_discrete(self):
        t = topology_from_preorder(Preorder(3, (1, 2, 4)))
        assert len(t.opens) == 8

    def test_all_true_preorder_gives_indiscrete(self):
        t = topology_from_preorder(Preorder(3, (7, 7, 7)))
        assert t.open_masks == (0, 7)

    def test_sierpinski_preorder(self):
        t = topology_from_preorder(Preorder(2, (1, 3)))
        assert t.open_masks == (0, 0b01, 0b11)

    def test_invalid_preorders_rejected(self):
        with pytest.raises(NotReflexive):
            Preorder(2, (1, 1))
        with pytest.raises(NotTransitive):
            Preorder(3, (1 | 2, 2 | 4, 4))

    @pytest.mark.parametrize("n, rows", [
        (1, (True,)), (2, (3, 2.0)), (2, (3, "2")), (2, (True, 2)),
    ], ids=["true", "float", "text", "bool-first"])
    def test_bool_and_non_int_rows_refused_as_out_of_range(self, n, rows):
        bad = next(a for a, row in enumerate(rows) if type(row) is not int)
        with pytest.raises(PointOutOfRange) as info:
            Preorder(n, rows)
        assert str(info.value) == f"row {bad} does not fit in {n} bits"

    def test_rows_are_stored_as_a_tuple(self):
        p = Preorder(2, [3, 2])
        assert p.rows == (3, 2)
        assert p == Preorder(2, (3, 2))
        assert hash(p) == hash(Preorder(2, (3, 2)))

    def test_matrix_entries_are_bools_or_zero_and_one(self):
        assert Preorder.from_matrix([[1, True], [False, 1]]) == Preorder(2, (3, 2))
        with pytest.raises(PointOutOfRange, match=r"matrix entry \(0, 1\) must be True, "
                                                  r"False, 0 or 1, got 'x'"):
            Preorder.from_matrix([[1, "x"], [0, 1]])

    def test_matrix_roundtrip_exhaustive_small(self):
        for n in range(1, 5):
            for p in enumerate_preorders(n):
                assert Preorder.from_matrix(p.matrix()) == p

    @pytest.mark.parametrize("matrix, error", [
        ([[True, False], [True]], PointOutOfRange),                       # ragged
        ([[True, False, False], [False, True, False]], PointOutOfRange),  # 2 x 3
        ([[True, True], [False, False]], NotReflexive),
        ([[True, True, False], [False, True, True], [False, False, True]], NotTransitive),
        # entries are True, False, 0 or 1
        ([[1, "x"], [0, 1]], PointOutOfRange),
        ([[1, None], [0, 1]], PointOutOfRange),
        ([[1, 2], [0, 1]], PointOutOfRange),
        ([[1, -1], [0, 1]], PointOutOfRange),
        ([[1.0, 0], [0, 1]], PointOutOfRange),
    ])
    def test_matrix_must_be_a_preorder(self, matrix, error):
        with pytest.raises(error):
            Preorder.from_matrix(matrix)

    def test_roundtrip_exhaustive_small(self):
        for n in range(1, 5):
            for t in enumerate_labeled(n):
                assert topology_from_preorder(specialization_preorder(t)) == t
            for p in enumerate_preorders(n):
                assert specialization_preorder(topology_from_preorder(p)) == p

    def test_roundtrip_random_n5(self, rng):
        for _ in range(50):
            p = random_preorder(5, rng)
            t = topology_from_preorder(p)
            assert specialization_preorder(t) == p
            assert topology_from_preorder(specialization_preorder(t)) == t


class TestDerivedPreorders:
    """The walk's leaves and the rows of a topology are built as preorders without
    being checked again; the checked constructor, given the same rows, is their
    reference."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_walk_leaves_are_the_checked_preorders(self, n):
        for leaf in enumerate_preorders(n):
            assert leaf == Preorder(n, leaf.rows)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_labeled_walk_is_the_topologies_of_the_preorders(self, n):
        assert [(t.n, t.open_masks, t._rows) for t in enumerate_labeled(n)] == [
            (t.n, t.open_masks, t._rows)
            for t in map(topology_from_preorder, enumerate_preorders(n))]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_rows_of_any_family_are_the_checked_preorder(self, n):
        """Families built by the unchecked constructor, most of them no topology."""
        rng = random.Random(n)
        rejected = 0
        for _ in range(200):
            family = rng.sample(range(1 << n), rng.randint(0, min(12, 1 << n)))
            t = FiniteTopology(n, tuple(PointSet(n, m) for m in family))
            preorder = specialization_preorder(t)
            assert preorder == Preorder(n, preorder.rows)
            try:
                validate_topology(n, t.opens)
            except InvalidTopology:
                rejected += 1
        assert rejected > 100


def traced_subspace(t, s_mask):
    """Reference subspace: trace every open set on S and renumber its points."""
    labels = tuple(PointSet(t.n, s_mask))
    index_of = {p: i for i, p in enumerate(labels)}
    traces = {sum(1 << index_of[p] for p in PointSet(t.n, u & s_mask))
              for u in t.open_masks}
    return tuple(sorted(traces, key=lambda m: (m.bit_count(), m))), labels


class TestSubspaceAgainstTrace:
    """``subspace`` builds the trace from the cut rows; the per-open trace is
    its reference on opens, rows and labels."""

    @staticmethod
    def check(t, s_mask):
        from hausnum.core import _rows_from_masks

        masks, labels = traced_subspace(t, s_mask)
        result = subspace(t, PointSet(t.n, s_mask))
        assert result.topology.open_masks == masks
        assert result.topology._rows == _rows_from_masks(len(labels), masks)
        assert result.labels == labels

    def test_every_carrier_up_to_four_points(self):
        for n in range(1, 5):
            for t in enumerate_labeled(n):
                for s_mask in range(1, 1 << n):
                    self.check(t, s_mask)

    def test_random_preorders_five_to_eight_points(self, rng):
        for n in range(5, 9):
            for _ in range(10):
                t = topology_from_preorder(random_preorder(n, rng))
                for _ in range(20):
                    self.check(t, rng.randrange(1, 1 << n))

    def test_doubled_point_on_twelve_of_sixteen(self):
        from hausnum.constructions import doubled_point_topology

        self.check(doubled_point_topology(16), (1 << 12) - 1)


class TestSubspace:
    def test_full_carrier_is_identity(self):
        t = topo(3, *EXAMPLE_3PT)
        result = subspace(t, PointSet.full(3))
        assert result.topology == t
        assert result.labels == (0, 1, 2)

    def test_three_point_yz_trace_is_indiscrete(self):
        t = topo(3, *EXAMPLE_3PT)
        result = subspace(t, [1, 2])
        assert result.topology.open_masks == (0, 0b11)
        assert result.labels == (1, 2)

    def test_four_point_xz_trace_is_discrete(self):
        from hausnum.constructions import filtered_four_point

        result = subspace(filtered_four_point(), [1, 3])
        assert len(result.topology.opens) == 4

    def test_empty_carrier_rejected(self):
        with pytest.raises(EmptySubset):
            subspace(topo(2, (), (0, 1)), [])

    def test_result_validates(self):
        for t in enumerate_labeled(3):
            for s_mask in range(1, 8):
                sub = subspace(t, PointSet(3, s_mask)).topology
                assert validate_topology(sub.n, sub.opens) == sub

    def test_trace_transitivity(self):
        # restricting in two steps equals restricting once, for all n=4 cases
        for t in enumerate_labeled(4):
            for s1_mask in range(1, 16):
                s1 = PointSet(4, s1_mask)
                one = subspace(t, s1)
                for s2_mask in range(1, 16):
                    if s2_mask & ~s1_mask:
                        continue
                    s2 = PointSet(4, s2_mask)
                    direct = subspace(t, s2)
                    reindexed = [one.labels.index(p) for p in s2]
                    two = subspace(one.topology, reindexed)
                    assert two.topology == direct.topology


class TestImmutability:
    def test_types_are_frozen(self):
        t = topo(2, *SIERPINSKI)
        with pytest.raises(AttributeError):
            t.n = 5
        with pytest.raises(AttributeError):
            PointSet(2, 1).mask = 3
        with pytest.raises(AttributeError):
            specialization_preorder(t).rows = ()


class TestCarriedRows:
    """Every topology holds its minimal rows from construction, and its open masks
    from construction too, but for ``enumerate_labeled`` and ``enumerate_classes``:
    theirs, and every package builder's ``opens``, are derived on first read.  They
    agree with its opens, however it was made."""

    @staticmethod
    def check(t) -> None:
        from hausnum.core import _rows_from_masks

        masks = tuple(u.mask for u in t.opens)
        assert all(u == PointSet(t.n, u.mask) for u in t.opens)
        assert t._masks == t.open_masks == masks
        assert t._rows == _rows_from_masks(t.n, masks)

    def test_validate_from_point_lists_and_point_sets(self, rng):
        for n in range(1, 7):
            for _ in range(5):
                opens = topology_from_preorder(random_preorder(n, rng)).opens
                shuffled = list(opens)
                rng.shuffle(shuffled)
                self.check(validate_topology(n, [list(u) for u in shuffled]))
                self.check(validate_topology(n, shuffled))

    def test_subbasis_preorder_and_subspace(self, rng):
        for n in range(1, 7):
            for _ in range(5):
                p = random_preorder(n, rng)
                self.check(topology_from_preorder(p))
                self.check(generate_from_subbasis(n, [PointSet(n, r) for r in p.rows]))
                self.check(generate_from_subbasis(n, [[a] for a in range(n) if a % 2]))
                carrier = [a for a in range(n) if rng.random() < 0.6] or [0]
                self.check(subspace(topology_from_preorder(p), carrier).topology)

    def test_constructions_and_loader(self, tmp_path):
        from hausnum.constructions import (
            doubled_point_topology,
            filtered_four_point,
            three_point_example,
            two_block_topology,
        )
        from hausnum.jsonio import load_topology, topology_to_json

        for t in (three_point_example(), filtered_four_point(), two_block_topology(5),
                  two_block_topology(2), doubled_point_topology(7, 3, 1)):
            self.check(t)
            path = tmp_path / "space.json"
            path.write_text(topology_to_json(t))
            self.check(load_topology(path)[0])
        path.write_text('{"format": "finite-topology/v1", "n": 4, "subbasis": [[2], [0, 1]]}')
        self.check(load_topology(path)[0])

    @staticmethod
    def enumerated():
        """Every topology the walk yields for n <= 4, every class representative for n <= 5."""
        for n in range(1, 5):
            yield from enumerate_labeled(n)
        for n in range(1, 6):
            yield from (t for _, t in enumerate_classes(n))

    READS = {"check": None, "open_masks": operator.attrgetter("open_masks"),
             "eq": lambda t: t, "hash": hash, "repr": repr, "copy": copy.copy,
             "deepcopy": copy.deepcopy, "pickle": lambda t: pickle.loads(pickle.dumps(t))}

    @staticmethod
    def unset(t) -> set:
        """The slots of ``t`` left to first read, looked up past ``__getattr__``."""
        missing = set()
        for name in ("opens", "_masks", "_closures"):
            try:
                getattr(FiniteTopology, name).__get__(t)
            except AttributeError:
                missing.add(name)
        return missing

    @pytest.mark.parametrize("read", READS.values(), ids=READS)
    def test_enumerated_topology_derives_on_first_read(self, read):
        """Each holds only n and its rows until read; whatever reads it first, it then
        equals the topology built from its opens in equality, hash, repr and copies."""
        for t, twin in zip(self.enumerated(), self.enumerated()):
            eager = FiniteTopology(twin.n, twin.opens)
            assert self.unset(t) == {"opens", "_masks", "_closures"}
            if read is None:
                self.check(t)
            else:
                assert read(t) == read(eager)
            assert self.unset(t) == ({"opens", "_closures"}
                                     if read in (self.READS["open_masks"], repr)
                                     else {"_closures"})
            assert t == eager and hash(t) == hash(eager) and repr(t) == repr(eager)
            self.check(t)
            assert t._rows == eager._rows

    def test_repr_leaves_the_open_family_unset(self):
        """The repr counts the open masks; it builds no ``PointSet`` of the family."""
        for t, twin in zip(enumerate_labeled(3), enumerate_labeled(3)):
            assert repr(t) == repr(FiniteTopology(twin.n, twin.opens))
            assert self.unset(t) == {"opens", "_closures"}

    def test_threads_that_derive_at_once_read_equal_values(self):
        """Threads that read the same topologies' open families at once each read the
        family of the topology built from its opens, and leave it stored."""
        import sys
        import threading

        shared = list(self.enumerated())
        eager = [FiniteTopology(t.n, t.opens) for t in self.enumerated()]
        reads = [[] for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda out=out: out.extend(
                (t.opens, t.open_masks) for t in shared)) for out in reads]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for out in reads:
            assert out == [(e.opens, e.open_masks) for e in eager]
        assert shared == eager and [hash(t) for t in shared] == [hash(e) for e in eager]

    def test_closures_are_the_columns_of_the_rows(self):
        """``closures[x]`` is column x of the specialization matrix, and the complement
        of every open set missing x."""
        for t in self.enumerated():
            n, full = t.n, (1 << t.n) - 1
            matrix = specialization_preorder(t).matrix()
            columns = tuple(sum(matrix[a][x] << a for a in range(n)) for x in range(n))
            assert self.unset(t) == {"opens", "_masks", "_closures"}
            assert t._closures == columns
            missing = [[u for u in t._masks if not u >> x & 1] for x in range(n)]
            assert columns == tuple(full & ~functools.reduce(operator.or_, us, 0)
                                    for us in missing)

    def test_threads_that_derive_closures_at_once_read_equal_values(self):
        """Threads that read the same topologies' point closures at once each read the
        closures of the topology built from its opens, and leave them stored."""
        import sys
        import threading

        shared = list(self.enumerated())
        eager = [FiniteTopology(t.n, t.opens)._closures for t in self.enumerated()]
        reads = [[] for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda out=out: out.extend(
                t._closures for t in shared)) for out in reads]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(out == eager for out in reads)
        assert all(self.unset(t) == {"opens", "_masks"} for t in shared)

    def test_copies_leave_the_closures_unset(self):
        """Copies and pickles go through the fields, so a read closure table is not
        carried over, and the copy derives an equal one."""
        t = generate_from_subbasis(4, [[0], [1, 2], [2, 3]])
        closures = t._closures
        for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)
            assert self.unset(twin) == {"_closures"}
            assert twin._closures == closures and not self.unset(twin)

    def test_bare_topology_derives_at_construction(self):
        from hausnum.core import FiniteTopology

        opens = (PointSet(3, 0), PointSet(3, 0b001), PointSet(3, 0b110), PointSet(3, 0b111))
        t = FiniteTopology(3, opens)
        self.check(t)
        assert t._rows == (0b001, 0b110, 0b110)

    def test_bare_topology_stores_its_opens_as_a_tuple(self):
        from hausnum.core import FiniteTopology

        opens = [PointSet(3, 0), PointSet(3, 0b111)]
        for given in (opens, iter(opens), (u for u in opens)):
            t = FiniteTopology(3, given)
            self.check(t)
            assert t.opens == tuple(opens) and t._rows == (0b111,) * 3
            assert hash(t) == hash(FiniteTopology(3, tuple(opens)))

    def test_bare_topology_reads_its_arguments(self):
        from hausnum.core import FiniteTopology

        with pytest.raises(PointOutOfRange, match="^point count must be in 1..64, got True$"):
            FiniteTopology(True, ())
        with pytest.raises(PointOutOfRange, match="^set over 5 points used in a 3-point space$"):
            FiniteTopology(3, (PointSet(5, 16),))
        with pytest.raises(SpaceMismatch, match="^not a point set: 'a'$"):
            FiniteTopology(3, "ab")

    def test_copies_and_pickles(self):
        import copy
        import pickle

        t = generate_from_subbasis(4, [[0], [1, 2], [2, 3]])
        for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)
            self.check(twin)
            assert twin._rows == t._rows
