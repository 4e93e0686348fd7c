import hashlib
import random

import pytest

from hausnum.constructions import filtered_four_point, two_block_topology
from hausnum.core import (
    PointSet,
    Preorder,
    generate_from_subbasis,
    minimal_neighborhood,
    subspace,
    topology_from_preorder,
    validate_topology,
)
from hausnum.enumeration import enumerate_labeled
from hausnum.errors import BadParameter, SetTooSmall, TooLarge
from hausnum.jsonio import FORMAT_TAG, dumps_canonical, topology_from_dict
from hausnum.limits import ORACLE_MAX_POINTS
from hausnum.separation import (
    analysis_report,
    axioms_report,
    hausdorff_number,
    hausdorff_number_oracle,
    is_n_hausdorff,
    is_separable,
    verify_witness,
)

from conftest import random_preorder


def topo(n, *sets):
    return validate_topology(n, [list(s) for s in sets])


def discrete(n):
    return generate_from_subbasis(n, [[p] for p in range(n)])


def indiscrete(n):
    return topo(n, (), tuple(range(n)))


EXAMPLE_3PT = topo(3, (), (0,), (1, 2), (0, 1, 2))


class TestIsSeparable:
    def test_three_point_full_set(self):
        decision = is_separable(EXAMPLE_3PT, [0, 1, 2])
        assert decision.separable
        assert verify_witness(EXAMPLE_3PT, [0, 1, 2], decision.witness)
        opens = dict(decision.witness.assignments)
        assert opens[0].mask == 0b001
        assert opens[1].mask == 0b110
        assert opens[2].mask == 0b110

    def test_discrete_pairs(self):
        t = discrete(4)
        for a in range(4):
            for b in range(a + 1, 4):
                decision = is_separable(t, [a, b])
                assert decision.separable
                assert verify_witness(t, [a, b], decision.witness)

    def test_three_point_yz_non_separable(self):
        decision = is_separable(EXAMPLE_3PT, [1, 2])
        assert not decision.separable
        # the certificate lies in every open containing 1 or 2
        for u in EXAMPLE_3PT.opens:
            if 1 in u or 2 in u:
                assert decision.certificate in u

    def test_too_small(self):
        with pytest.raises(SetTooSmall):
            is_separable(EXAMPLE_3PT, [1])

    def test_monotone_in_supersets(self):
        # A separable and A ⊆ B implies B separable, exhaustively at n <= 4
        for n in (2, 3, 4):
            for t in enumerate_labeled(n):
                separable_masks = [
                    a for a in range(1 << n)
                    if a.bit_count() >= 2 and is_separable(t, PointSet(n, a)).separable
                ]
                for a in separable_masks:
                    for b in range(1 << n):
                        if b & a == a and b != a:
                            assert is_separable(t, PointSet(n, b)).separable


class TestHausdorffNumber:
    def test_three_point_example(self):
        assert hausdorff_number(EXAMPLE_3PT).value == 3

    def test_discrete_is_two(self):
        for n in (2, 3, 5):
            assert hausdorff_number(discrete(n)).value == 2

    def test_histogram_at_two_points(self):
        values = sorted(hausdorff_number(t).value for t in enumerate_labeled(2))
        assert values == [2, 3, 3, 3]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_two_block_value_is_n(self, n):
        assert hausdorff_number(two_block_topology(n)).value == n

    def test_largest_nonseparable_invariants(self):
        for t in enumerate_labeled(3):
            h = hausdorff_number(t)
            largest = h.largest_nonseparable
            assert len(largest) == h.value - 1
            if len(largest) >= 2:
                assert not is_separable(t, largest).separable
            # every strictly larger set is separable
            for mask in range(1 << 3):
                if mask.bit_count() >= h.value:
                    assert is_separable(t, PointSet(3, mask)).separable

    def test_one_point_convention(self):
        assert hausdorff_number(topo(1, (), (0,))).value == 2


class TestOracle:
    def test_matches_closed_form_on_three_points(self):
        for t in enumerate_labeled(3):
            assert hausdorff_number_oracle(t).value == hausdorff_number(t).value

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_indiscrete_is_n_plus_one(self, n):
        assert hausdorff_number_oracle(indiscrete(n)).value == n + 1

    def test_discrete_three(self):
        assert hausdorff_number_oracle(discrete(3)).value == 2

    def test_refuses_large_spaces(self):
        with pytest.raises(TooLarge):
            hausdorff_number_oracle(two_block_topology(6))

    def test_oracle_largest_set_invariants(self):
        for t in enumerate_labeled(3):
            h = hausdorff_number_oracle(t)
            assert len(h.largest_nonseparable) == h.value - 1
            if len(h.largest_nonseparable) >= 2:
                assert not is_separable(t, h.largest_nonseparable).separable


class TestIsNHausdorff:
    def test_three_point_example(self):
        assert is_n_hausdorff(EXAMPLE_3PT, 3)
        assert not is_n_hausdorff(EXAMPLE_3PT, 2)

    def test_discrete_five(self):
        assert is_n_hausdorff(discrete(5), 2)

    def test_doubled_on_six(self):
        from hausnum.constructions import doubled_point_topology

        assert is_n_hausdorff(doubled_point_topology(6), 3)

    def test_bad_bound(self):
        with pytest.raises(BadParameter):
            is_n_hausdorff(EXAMPLE_3PT, 1)

    def test_monotone_in_bound(self):
        for t in enumerate_labeled(3):
            for k in range(2, 5):
                if is_n_hausdorff(t, k):
                    assert is_n_hausdorff(t, k + 1)


class TestAxiomsReport:
    def test_discrete_all_true(self):
        report = axioms_report(discrete(3))
        assert all([report.t0, report.t1, report.hausdorff, report.regular,
                    report.normal, report.discrete, report.compact])

    def test_hausdorff_implies_discrete_small(self):
        for n in (2, 3):
            for t in enumerate_labeled(n):
                if axioms_report(t).hausdorff:
                    assert axioms_report(t).discrete

    def test_filtered_four_point_flags(self):
        report = axioms_report(filtered_four_point())
        assert report.t0
        assert not report.t1
        assert not report.hausdorff
        assert not report.discrete
        assert report.compact

    def test_hausdorff_flag_iff_h_two(self):
        for t in enumerate_labeled(3):
            assert axioms_report(t).hausdorff == (hausdorff_number(t).value == 2)

    def test_regular_normal_against_bruteforce(self):
        # brute force over explicit open pairs on every 3-point topology
        for t in enumerate_labeled(3):
            full = (1 << 3) - 1
            closed = [u ^ full for u in t.open_masks]
            report = axioms_report(t)

            def disjoint_opens_exist(around_mask, covering):
                return any(
                    u & v == 0 and around_mask & u == around_mask and covering & ~v == 0
                    for u in t.open_masks for v in t.open_masks)

            regular = all(
                disjoint_opens_exist(1 << a, c)
                for c in closed for a in range(3) if not c >> a & 1)
            normal = all(
                any(u & v == 0 and c1 & ~u == 0 and c2 & ~v == 0
                    for u in t.open_masks for v in t.open_masks)
                for c1 in closed for c2 in closed if c1 & c2 == 0)
            assert report.regular == regular
            assert report.normal == normal


def regular_and_normal_by_definition(t):
    """Both axioms straight from their definitions over the closed sets.

    The closed sets are the complements of the opens, and the smallest open
    set containing a set is the union of the minimal neighbourhoods of its
    points.
    """
    n = t.n
    full = (1 << n) - 1
    rows = [minimal_neighborhood(t, a).mask for a in range(n)]

    def hull(c):
        return sum(1 << b for b in range(n)
                   if any(c >> a & 1 and rows[a] >> b & 1 for a in range(n)))

    closed = [u ^ full for u in t.open_masks]
    regular = all(rows[x] & hull(c) == 0
                  for c in closed for x in range(n) if not c >> x & 1)
    normal = all(hull(c1) & hull(c2) == 0
                 for c1 in closed for c2 in closed if c1 & c2 == 0)
    return regular, normal


class TestRegularNormalDefinitions:
    def test_every_topology_up_to_four_points(self):
        seen = set()
        for n in range(1, 5):
            for t in enumerate_labeled(n):
                report = axioms_report(t)
                flags = (report.regular, report.normal)
                assert flags == regular_and_normal_by_definition(t)
                seen.add(flags)
        # finite regular spaces are partitions, hence normal
        assert seen == {(True, True), (False, True), (False, False)}

    @pytest.mark.parametrize("n", [5, 6])
    def test_random_preorders(self, n, rng):
        for _ in range(200):
            t = topology_from_preorder(random_preorder(n, rng))
            report = axioms_report(t)
            assert (report.regular, report.normal) == regular_and_normal_by_definition(t)


class TestSubspaceMonotonicity:
    def test_h_never_grows_under_subspaces(self):
        for n in (2, 3):
            for t in enumerate_labeled(n):
                h = hausdorff_number(t).value
                for mask in range(1, 1 << n):
                    if mask.bit_count() < 2:
                        continue
                    sub = subspace(t, PointSet(n, mask)).topology
                    assert hausdorff_number(sub).value <= h


def product_preorder(p, q):
    """X × Y, point (x, y) at x * |Y| + y: N((x, y)) = N(x) × N(y)."""
    rows = tuple(sum(1 << (i * q.n + j) for i in range(p.n) if p.rows[x] >> i & 1
                     for j in range(q.n) if q.rows[y] >> j & 1)
                 for x in range(p.n) for y in range(q.n))
    return Preorder(p.n * q.n, rows)


def sum_preorder(p, q):
    """X ⊔ Y, the points of Y after those of X."""
    return Preorder(p.n + q.n, p.rows + tuple(row << p.n for row in q.rows))


class TestMetamorphicLaws:
    """H on products and disjoint sums of seeded random spaces, up to 8 points.

    cl{(x, y)} = cl{x} × cl{y}, so H(X × Y) - 1 = (H(X) - 1)(H(Y) - 1); a
    closure stays in its summand, so H(X ⊔ Y) = max(H(X), H(Y)).  Each built
    space is also checked against the product or sum of the open families,
    and against the exhaustive oracle where it is small enough.
    """

    PRODUCT_SHAPES = [(a, b) for a in range(1, 9) for b in range(1, 9) if a * b <= 8]
    SUM_SHAPES = [(a, b) for a in range(1, 8) for b in range(1, 9 - a)]

    @staticmethod
    def spaces(shapes, rounds, seed):
        rng = random.Random(seed)
        for _ in range(rounds):
            for a, b in shapes:
                p, q = random_preorder(a, rng), random_preorder(b, rng)
                yield p, q, [hausdorff_number(topology_from_preorder(r)).value for r in (p, q)]

    @staticmethod
    def check(built, expected):
        assert hausdorff_number(built).value == expected
        if built.n <= ORACLE_MAX_POINTS:
            assert hausdorff_number_oracle(built).value == expected

    def test_product(self):
        for p, q, (hp, hq) in self.spaces(self.PRODUCT_SHAPES, 12, 0x9801):
            built = topology_from_preorder(product_preorder(p, q))
            boxes = [[x * q.n + y for x in range(p.n) if u >> x & 1
                      for y in range(q.n) if v >> y & 1]
                     for u in topology_from_preorder(p).open_masks
                     for v in topology_from_preorder(q).open_masks]
            assert generate_from_subbasis(p.n * q.n, boxes) == built
            self.check(built, 1 + (hp - 1) * (hq - 1))

    def test_disjoint_sum(self):
        for p, q, (hp, hq) in self.spaces(self.SUM_SHAPES, 5, 0x9802):
            built = topology_from_preorder(sum_preorder(p, q))
            unions = [[x for x in range(p.n) if u >> x & 1]
                      + [p.n + y for y in range(q.n) if v >> y & 1]
                      for u in topology_from_preorder(p).open_masks
                      for v in topology_from_preorder(q).open_masks]
            assert validate_topology(p.n + q.n, unions) == built
            self.check(built, max(hp, hq))


class TestAnalysisReport:
    def test_stable_field_names(self):
        report = analysis_report(EXAMPLE_3PT)
        assert set(report) == {
            "n", "hausdorff_number", "largest_nonseparable", "t0", "t1",
            "hausdorff", "regular", "normal", "discrete", "compact",
        }
        assert report["hausdorff_number"] == 3
        assert report["largest_nonseparable"] == [1, 2]
        assert report["compact"] is True

    def test_large_documents_pinned(self):
        # the reports of opens and subbasis documents on 9..12 points, paired
        # and random rows, must stay byte-identical
        rng = random.Random(20124)
        digest = hashlib.sha256()
        for n in range(9, 13):
            a, b = rng.sample(range(n), 2)
            paired = [1 << p for p in range(n)]
            paired[a] = paired[b] = 1 << a | 1 << b
            for rows in (tuple(paired), random_preorder(n, rng).rows):
                opens = [list(u) for u in topology_from_preorder(Preorder(n, rows)).opens]
                rng.shuffle(opens)
                subbasis = [list(PointSet(n, row)) for row in rows]
                for key, family in (("opens", opens), ("subbasis", subbasis)):
                    topology, _ = topology_from_dict(
                        {"format": FORMAT_TAG, "n": n, key: family})
                    digest.update(dumps_canonical(analysis_report(topology)).encode())
        assert digest.hexdigest() == (
            "2ce34c7b58420ae49094637b10753e9454c5e6bae0c3573b185feb65dbd61f4a")
