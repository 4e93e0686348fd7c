import hashlib
import random
import time
from fractions import Fraction

import pytest

from hausnum.errors import (
    BadParameter,
    DuplicatePoints,
    ParseError,
    SetTooSmall,
    SpaceMismatch,
    TopologyError,
)
from hausnum.limits import COORDINATE_MAX_DIGITS
from hausnum.symbolic import (
    OMEGA,
    OMEGA_ONE,
    BallNeighborhood,
    Base,
    BasePoint,
    BugEyedSpace,
    Cardinal,
    Finite,
    Vertical,
    VerticalNeighborhood,
    _parse_verticals,
    format_point,
    grid_witness_search,
    hausdorff_number_symbolic,
    intersection_nonempty,
    largest_nonseparable_set,
    membership,
    neighborhood_of,
    parse_point,
    parse_points,
    restrict,
    separable,
    t1_status,
)

T1_ONE = BugEyedSpace(1, t1_variant=True)       # one stacked point, punctured
NON_T1_ONE = BugEyedSpace(1, t1_variant=False)  # unpunctured variant
T1_OMEGA = BugEyedSpace(OMEGA, t1_variant=True)
HALF = Fraction(1, 2)

# Centres and radii on a grid coarse enough that intervals often touch end to
# end; centres include 0 and 1, and some radii cover the whole unit interval.
GRID = sorted({Fraction(i, d) for d in range(1, 9) for i in range(d + 1)})
RADII = [q for q in GRID if q > 0] + [Fraction(3, 2), Fraction(2)]
SPACES = [BugEyedSpace(v, t1) for v in (1, 3, OMEGA) for t1 in (True, False)]


def random_neighborhoods(rng):
    """One to four basic neighbourhoods of one space, balls and stacked ones."""
    space = rng.choice(SPACES)
    top = 1 if space.vertical_count == 1 else 3
    nbhds = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.6:
            nbhds.append(BallNeighborhood(space, Base(rng.choice(GRID)), rng.choice(RADII)))
        else:
            nbhds.append(VerticalNeighborhood(space, Vertical(rng.randint(1, top)),
                                              rng.randint(1, 8)))
    return nbhds


def contains_by_definition(nbhd, q: Fraction) -> bool:
    """Whether the base point q lies in ``nbhd``, read off the definitions."""
    if not 0 <= q <= 1:
        return False
    if isinstance(nbhd, BallNeighborhood):
        return abs(q - nbhd.owner.coordinate) < nbhd.radius
    if q == HALF and nbhd.space.t1_variant:
        return False
    return abs(q - HALF) < Fraction(1, nbhd.k)


def probe_points(nbhds) -> list[Fraction]:
    """Every interval end in [0,1], with 0, 1/2 and 1, and the midpoints of the
    gaps between them.  The common base-line trace is a union of intervals
    that end at such points, so it is empty iff no probe lies in it."""
    ends = {Fraction(0), HALF, Fraction(1)}
    for nb in nbhds:
        if isinstance(nb, BallNeighborhood):
            centre, radius = nb.owner.coordinate, nb.radius
        else:
            centre, radius = HALF, Fraction(1, nb.k)
        ends |= {centre - radius, centre + radius}
    ends = sorted(e for e in ends if 0 <= e <= 1)
    return ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]


class TestMembership:
    def test_unpunctured_interval_contains_half(self):
        for k in (1, 2, 10, 64):
            nbhd = VerticalNeighborhood(NON_T1_ONE, Vertical(1), k)
            assert membership(nbhd, Base(Fraction(1, 2)))

    def test_punctured_interval_excludes_half(self):
        for k in (1, 2, 10, 64):
            nbhd = VerticalNeighborhood(T1_ONE, Vertical(1), k)
            assert not membership(nbhd, Base(Fraction(1, 2)))

    def test_wide_punctured_interval_contains_quarter(self):
        nbhd = VerticalNeighborhood(T1_ONE, Vertical(1), 2)  # (0, 1) minus 1/2
        assert membership(nbhd, Base(Fraction(1, 4)))
        assert not membership(nbhd, Base(0))

    def test_vertical_members(self):
        space = BugEyedSpace(3)
        nbhd = VerticalNeighborhood(space, Vertical(2), 5)
        assert membership(nbhd, Vertical(2))
        assert not membership(nbhd, Vertical(1))
        assert not membership(nbhd, Vertical(3))

    def test_balls_contain_no_verticals(self):
        nbhd = BallNeighborhood(T1_ONE, Base(Fraction(1, 2)), Fraction(10))
        assert not membership(nbhd, Vertical(1))

    def test_ball_membership_is_strict(self):
        nbhd = BallNeighborhood(T1_ONE, Base(Fraction(1, 4)), Fraction(1, 8))
        assert membership(nbhd, Base(Fraction(5, 16)))
        assert not membership(nbhd, Base(Fraction(3, 8)))  # on the boundary

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            membership(VerticalNeighborhood(T1_ONE, Vertical(1), 3), Vertical(2))

    def test_no_stacked_point_zero(self):
        assert not T1_OMEGA.has_vertical(0) and not T1_ONE.has_vertical(-1)

    def test_owner_of_the_other_kind(self):
        with pytest.raises(SpaceMismatch, match=r"not a base point: VerticalPoint\(index=1\)"):
            BallNeighborhood(BugEyedSpace(2), Vertical(1), 1)
        with pytest.raises(SpaceMismatch, match=r"not a vertical point: BasePoint\("):
            VerticalNeighborhood(BugEyedSpace(2), Base(0), 1)


class TestIntersectionNonempty:
    def test_needs_a_neighborhood(self):
        with pytest.raises(BadParameter, match="need at least one neighborhood"):
            intersection_nonempty([])

    def test_members_of_another_kind_or_space(self):
        ball = BallNeighborhood(T1_ONE, Base(0), 1)
        with pytest.raises(SpaceMismatch, match="^not a basis neighborhood: 5$"):
            intersection_nonempty([ball, 5])
        with pytest.raises(SpaceMismatch, match="^neighborhoods from different spaces$"):
            intersection_nonempty([ball, BallNeighborhood(T1_OMEGA, Base(0), 1)])
    def test_disjoint_balls(self):
        a = BallNeighborhood(T1_ONE, Base(Fraction(1, 4)), Fraction(1, 8))
        b = BallNeighborhood(T1_ONE, Base(Fraction(3, 4)), Fraction(1, 8))
        assert intersection_nonempty([a, b]) is None

    def test_stacked_intervals_always_overlap(self):
        space = BugEyedSpace(2)
        for k, j in [(1, 1), (3, 64), (64, 64)]:
            a = VerticalNeighborhood(space, Vertical(1), k)
            b = VerticalNeighborhood(space, Vertical(2), j)
            point = intersection_nonempty([a, b])
            assert point is not None
            assert membership(a, point) and membership(b, point)

    def test_ball_at_half_meets_punctured_interval(self):
        ball = BallNeighborhood(T1_ONE, Base(Fraction(1, 2)), Fraction(1, 100))
        u = VerticalNeighborhood(T1_ONE, Vertical(1), 64)
        point = intersection_nonempty([ball, u])
        assert point is not None
        assert point.coordinate != Fraction(1, 2)
        assert membership(ball, point) and membership(u, point)

    def test_witness_respects_unit_interval_clipping(self):
        edge = BallNeighborhood(T1_ONE, Base(0), Fraction(1, 16))
        point = intersection_nonempty([edge])
        assert point is not None and 0 <= point.coordinate <= 1

    def test_mixed_spaces_rejected(self):
        a = BallNeighborhood(T1_ONE, Base(Fraction(1, 4)), Fraction(1, 8))
        b = BallNeighborhood(T1_OMEGA, Base(Fraction(1, 4)), Fraction(1, 8))
        with pytest.raises(SpaceMismatch):
            intersection_nonempty([a, b])

    def test_touching_intervals_are_disjoint(self):
        left = BallNeighborhood(T1_ONE, Base(Fraction(1, 4)), Fraction(1, 4))
        right = BallNeighborhood(T1_ONE, Base(Fraction(3, 4)), Fraction(1, 4))
        assert intersection_nonempty([left, right]) is None
        ends = BallNeighborhood(T1_ONE, Base(0), Fraction(1, 2))
        assert intersection_nonempty([ends, right]) is None

    def test_midpoint_on_the_puncture_moves_to_the_quarter_point(self):
        stacked = VerticalNeighborhood(T1_ONE, Vertical(1), 1)
        whole = BallNeighborhood(T1_ONE, Base(HALF), Fraction(2))
        assert intersection_nonempty([stacked, whole]) == Base(Fraction(1, 4))
        middle = BallNeighborhood(T1_ONE, Base(HALF), Fraction(1, 4))
        assert intersection_nonempty([middle, stacked]) == Base(Fraction(3, 8))

    def test_witness_stays_exact_when_every_interval_covers_the_unit_interval(self):
        wide = BallNeighborhood(NON_T1_ONE, Base(HALF), Fraction(2))
        point = intersection_nonempty([wide, VerticalNeighborhood(NON_T1_ONE, Vertical(1), 1)])
        assert point == Base(HALF) and type(point.coordinate) is Fraction

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_definitions(self, seed):
        rng = random.Random(seed)
        for _ in range(500):
            nbhds = random_neighborhoods(rng)
            probes = probe_points(nbhds)
            common = [q for q in probes
                      if all(contains_by_definition(nb, q) for nb in nbhds)]
            point = intersection_nonempty(nbhds)
            assert (point is None) == (not common)
            if point is not None:
                assert isinstance(point, BasePoint) and type(point.coordinate) is Fraction
                assert all(contains_by_definition(nb, point.coordinate) for nb in nbhds)
            for nb in nbhds:
                for q in probes:
                    assert membership(nb, Base(q)) == contains_by_definition(nb, q)

    def test_results_pinned_on_a_seeded_corpus(self):
        # sha256 of the witnesses and membership bits on 3,000 seeded lists,
        # computed with an earlier interval model that tracked the strictness
        # of each end: a rewrite must not move a single witness or bit
        rng = random.Random(2012)
        lines = []
        for _ in range(3000):
            nbhds = random_neighborhoods(rng)
            point = intersection_nonempty(nbhds)
            probes = [Base(q) for q in rng.sample(GRID, 4)] + [Base(HALF), Vertical(1)]
            bits = "".join(str(int(membership(nb, p))) for nb in nbhds for p in probes)
            lines.append(f"{format_point(point) if point else 'none'} {bits}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "84a25289114af9256e7e8400771f144cf810ad7c1b4bad61ee4eb8a018e9b541"


class TestSeparable:
    def test_half_and_stacked_point_not_separable(self):
        verdict = separable(T1_ONE, [Base(Fraction(1, 2)), Vertical(1)])
        assert not verdict.separable
        assert verdict.certificate is not None

    def test_two_base_points(self):
        verdict = separable(T1_ONE, [Base(Fraction(1, 4)), Base(Fraction(3, 4))])
        assert verdict.separable
        radii = [nb.radius for _, nb in verdict.witness]
        assert radii == [Fraction(1, 4), Fraction(1, 4)]

    def test_base_plus_two_stacked(self):
        space = BugEyedSpace(2)
        verdict = separable(space, [Base(Fraction(1, 3)), Vertical(1), Vertical(2)])
        assert verdict.separable
        assert intersection_nonempty([nb for _, nb in verdict.witness]) is None

    @pytest.mark.parametrize("v", [1, 2, 3, 5])
    def test_hub_is_not_separable(self, v):
        space = BugEyedSpace(v)
        hub = largest_nonseparable_set(space)
        assert len(hub) == v + 1
        assert not separable(space, hub).separable

    def test_subsets_of_hub_stay_nonseparable(self, rng):
        space = BugEyedSpace(5)
        hub = largest_nonseparable_set(space)
        for _ in range(20):
            size = rng.randrange(2, len(hub) + 1)
            subset = rng.sample(hub, size)
            assert not separable(space, subset).separable

    def test_errors(self):
        with pytest.raises(SetTooSmall):
            separable(T1_ONE, [Vertical(1)])
        with pytest.raises(DuplicatePoints):
            separable(T1_ONE, [Vertical(1), Vertical(1)])
        with pytest.raises(SpaceMismatch):
            separable(T1_ONE, [Vertical(1), Vertical(2)])

    def test_member_kind_before_duplicates_space_after(self):
        # unhashable members are refused by kind before the duplicate test
        with pytest.raises(SpaceMismatch, match=r"^not a symbolic point: \[1\]$"):
            separable(BugEyedSpace(2), [[1], [2]])
        with pytest.raises(DuplicatePoints):
            separable(BugEyedSpace(2), [Vertical(9), Vertical(9)])
        with pytest.raises(SpaceMismatch, match="^not a bug-eyed space: 5$"):
            separable(5, [Base(0), Base(1)])

    def test_verdict_json_shape(self):
        doc = separable(T1_ONE, [Base(Fraction(1, 3)), Vertical(1)]).to_dict()
        assert doc["separable"] is True
        entry = doc["witness"][0]
        assert entry["point"] == "b:1/3"
        assert entry["neighborhood"]["kind"] == "ball"
        vert = doc["witness"][1]["neighborhood"]
        assert vert["kind"] == "basic" and isinstance(vert["k"], int)


class TestGridCrossValidation:
    def sample_points(self, space, rng, size):
        # base coordinates on the 1/32 grid keep the 1/64 witness grid exact
        points = set()
        while len(points) < size:
            if rng.random() < 0.5:
                points.add(Base(Fraction(rng.randrange(33), 32)))
            else:
                v = space.vertical_count
                points.add(Vertical(rng.randrange(1, v + 1)))
        return list(points)

    def test_rule_matches_bounded_search(self, rng):
        for trial in range(300):
            v = rng.choice([1, 2, 3, 5])
            space = BugEyedSpace(v, t1_variant=bool(trial % 2))
            pts = self.sample_points(space, rng, rng.randrange(2, 7))
            verdict = separable(space, pts)
            found = grid_witness_search(space, pts)
            assert verdict.separable == (found is not None)
            if found is not None:
                assert intersection_nonempty([nb for _, nb in found]) is None


class TestHausdorffNumberSymbolic:
    def test_single_stacked_point(self):
        assert hausdorff_number_symbolic(T1_ONE) == Finite(3)

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_finite_family(self, n):
        assert hausdorff_number_symbolic(BugEyedSpace(n - 1)) == Finite(n + 1)

    def test_omega_gives_omega_one(self):
        assert hausdorff_number_symbolic(T1_OMEGA) == OMEGA_ONE
        assert largest_nonseparable_set(T1_OMEGA) is None

    def test_cardinal_order(self):
        assert Finite(3) < Finite(4) < OMEGA_ONE
        assert not OMEGA_ONE < Finite(100)
        assert Finite(5) <= Finite(5) <= OMEGA_ONE
        assert OMEGA_ONE <= OMEGA_ONE and not OMEGA_ONE < OMEGA_ONE
        assert Finite(4) > Finite(3) and OMEGA_ONE >= Finite(0)

    @pytest.mark.parametrize("cardinal", [Finite(3), OMEGA_ONE])
    def test_cardinal_order_with_another_type_is_pythons_protocol(self, cardinal):
        assert cardinal.__lt__(5) is NotImplemented and cardinal.__le__(5) is NotImplemented
        with pytest.raises(TypeError):
            cardinal < 5

    @pytest.mark.parametrize("kind, value", [("finite", -1), ("omega_1", 3), ("omega", None)])
    def test_cardinal_reads_its_kind_and_value(self, kind, value):
        with pytest.raises(BadParameter, match="a cardinal is"):
            Cardinal(kind, value)


class TestT1Status:
    def test_punctured_variant_separates_stacked_from_half(self):
        result = t1_status(T1_ONE, Vertical(1), Base(Fraction(1, 2)))
        assert result.holds
        assert result.first_excludes_second.k == 1

    def test_unpunctured_variant_fails(self):
        result = t1_status(NON_T1_ONE, Vertical(1), Base(Fraction(1, 2)))
        assert not result.holds
        assert "v:1" in result.explanation and "b:1/2" in result.explanation

    def test_base_pair(self):
        result = t1_status(T1_ONE, Base(Fraction(1, 4)), Base(Fraction(3, 4)))
        assert result.holds
        assert result.first_excludes_second.radius == Fraction(1, 4)

    def test_every_pair_passes_in_t1_variant(self, rng):
        space = BugEyedSpace(3)
        pts = [Base(Fraction(1, 2)), Base(Fraction(1, 3)), Base(0), Base(1),
               Vertical(1), Vertical(2), Vertical(3)]
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                assert t1_status(space, p, q).holds

    def test_same_point_rejected(self):
        with pytest.raises(DuplicatePoints):
            t1_status(T1_ONE, Vertical(1), Vertical(1))


def test_witness_failing_re_verification_raises(monkeypatch):
    """Both re-verifications of a constructed witness raise when membership fails."""
    monkeypatch.setattr("hausnum.symbolic.membership", lambda nbhd, p: False)
    with pytest.raises(AssertionError, match="^constructed witness failed exact re-verification$"):
        separable(T1_ONE, [Base(Fraction(1, 4)), Base(Fraction(3, 4))])
    with pytest.raises(AssertionError, match="^exclusion witness failed re-verification$"):
        t1_status(T1_ONE, Base(Fraction(1, 4)), Base(Fraction(3, 4)))


class TestStackedNeighborhoodShrinking:
    def test_intersection_expels_fixed_base_points(self, rng):
        # once 1/K drops below a base point's offset from 1/2, U_K excludes it
        space = BugEyedSpace(1)
        for _ in range(25):
            coord = Fraction(rng.randrange(33), 32)
            if coord == Fraction(1, 2):
                continue
            offset = abs(coord - Fraction(1, 2))
            for k in range(1, 65):
                inside = membership(
                    VerticalNeighborhood(space, Vertical(1), k), Base(coord))
                assert inside == (Fraction(1, k) > offset)

    def test_self_always_inside(self):
        space = BugEyedSpace(2)
        for k in (1, 7, 64):
            assert membership(VerticalNeighborhood(space, Vertical(2), k), Vertical(2))


class TestRestrict:
    def test_omega_to_finite(self):
        sub = restrict(T1_OMEGA, 1)
        assert sub == BugEyedSpace(1, t1_variant=True)
        assert hausdorff_number_symbolic(sub) == Finite(3)

    def test_composition_takes_minimum(self):
        assert restrict(restrict(T1_OMEGA, 5), 3) == restrict(T1_OMEGA, 3)
        assert restrict(restrict(T1_OMEGA, 3), 5) == restrict(T1_OMEGA, 3)

    def test_h_never_grows(self):
        for n in (1, 2, 5, 20):
            assert hausdorff_number_symbolic(restrict(T1_OMEGA, n)) <= \
                hausdorff_number_symbolic(T1_OMEGA)

    def test_variant_preserved(self):
        omega_non_t1 = BugEyedSpace(OMEGA, t1_variant=False)
        assert restrict(omega_non_t1, 2) == BugEyedSpace(2, t1_variant=False)

    def test_bad_parameter(self):
        with pytest.raises(BadParameter):
            restrict(T1_OMEGA, 0)


class TestPointSyntax:
    def test_parse_and_format(self):
        assert parse_point("b:1/2") == Base(Fraction(1, 2))
        assert parse_point("v:3") == Vertical(3)
        assert parse_point("b:1") == Base(1)
        assert format_point(Base(Fraction(2, 4))) == "b:1/2"
        assert format_point(Vertical(7)) == "v:7"

    def test_parse_points_list(self):
        pts = parse_points("b:1/2, v:1,v:2")
        assert pts == [Base(Fraction(1, 2)), Vertical(1), Vertical(2)]

    def test_parse_errors(self):
        for bad in ("x:1", "b:", "b:3/2", "v:0", "v:x", ""):
            with pytest.raises(ParseError):
                parse_point(bad)

    def test_coordinate_digits_are_capped(self):
        # digits in the text, plus |exponent|: "1e-k" implies 1 + len(str(k)) + k
        cap = COORDINATE_MAX_DIGITS
        k = cap - 1 - len(str(cap))
        assert 1 + len(str(k)) + k == cap
        assert parse_point(f"b:1e-{k}") == Base(Fraction(1, 10 ** k))
        assert parse_point("b:1/" + "9" * (cap - 1)) == Base(Fraction(1, 10 ** (cap - 1) - 1))
        for past in (f"b:1e-{k + 1}", "b:1/" + "9" * cap, "b:1e-99999999", "b:0.5E-5000"):
            with pytest.raises(ParseError, match="implies more than"):
                parse_point(past)

    def test_integer_digits_are_capped(self):
        # v:<m> and --verticals read integers under the coordinate digit cap
        at_cap, past = "9" * COORDINATE_MAX_DIGITS, "9" * (COORDINATE_MAX_DIGITS + 1)
        assert parse_point("v:" + at_cap) == Vertical(int(at_cap))
        assert _parse_verticals(at_cap) == int(at_cap)
        assert _parse_verticals(" Omega ") is OMEGA
        with pytest.raises(ParseError) as info:
            parse_point("v:" + past)
        assert str(info.value) == ("bad vertical point: its index implies more than "
                                   "2,000 digits")
        with pytest.raises(ParseError) as info:
            _parse_verticals(past)
        assert str(info.value) == "bad --verticals value implies more than 2,000 digits"

    @pytest.mark.parametrize("text", ["zzz", "1.5", "9" * 4301, "1e3"])
    def test_verticals_refused_by_int_keep_their_message(self, text):
        with pytest.raises(ParseError) as info:
            _parse_verticals(text)
        assert str(info.value) == (
            f"--verticals takes a positive integer or 'omega', got {text!r}")

    @pytest.mark.parametrize("entry", [
        Base,
        BasePoint,
        lambda text: BallNeighborhood(T1_ONE, Base(0), text),
        lambda text: neighborhood_of(T1_ONE, Base(0), text),
    ], ids=["Base", "BasePoint", "BallNeighborhood", "neighborhood_of"])
    def test_library_entries_cap_coordinate_text(self, entry):
        from decimal import Decimal

        for past in ("1e-99999999", Decimal("1e-99999999")):
            start = time.perf_counter()
            with pytest.raises(TopologyError, match="implies more than 2,000 digits"):
                entry(past)
            assert time.perf_counter() - start < 1.0
        assert entry("1e-5") == entry(Fraction(1, 100000))

    @pytest.mark.parametrize("text, reason", [
        ("abc", "Invalid literal for Fraction: 'abc'"), ("1/0", "Fraction(1, 0)")])
    def test_text_fraction_refuses_keeps_its_message(self, text, reason):
        for entry in (Base, lambda q: neighborhood_of(T1_ONE, Base(0), q)):
            with pytest.raises(BadParameter) as info:
                entry(text)
            assert str(info.value) == reason

    @pytest.mark.parametrize("value", [None, [1], float("nan"), float("-inf")],
                             ids=["None", "list", "nan", "-inf"])
    def test_non_numbers_refused_as_bools_are(self, value):
        with pytest.raises(BadParameter) as info:
            Base(value)
        assert str(info.value) == f"bad base point: its coordinate is {value!r}, not a number"
        with pytest.raises(BadParameter) as info:
            BallNeighborhood(T1_ONE, Base(0), value)
        assert str(info.value) == f"bad radius: its value is {value!r}, not a number"

    def test_spaces_validate_construction(self):
        with pytest.raises(BadParameter):
            BugEyedSpace(0)
        with pytest.raises(BadParameter):
            Base(Fraction(5, 4))
        with pytest.raises(BadParameter):
            Vertical(0)
        with pytest.raises(BadParameter):
            neighborhood_of(T1_ONE, Base(Fraction(1, 2)), 0)
        for bad in (lambda: Base(True), lambda: BasePoint(False),
                    lambda: BallNeighborhood(T1_ONE, Base(0), True),
                    lambda: neighborhood_of(T1_ONE, Base(0), True)):
            with pytest.raises(BadParameter, match="is (True|False), not a number"):
                bad()

    @pytest.mark.parametrize("flag", ["no", 1, 0, None])
    def test_t1_variant_must_be_a_bool(self, flag):
        with pytest.raises(BadParameter) as info:
            BugEyedSpace(1, flag)
        assert str(info.value) == f"t1_variant must be True or False, got {flag!r}"

    @pytest.mark.parametrize("param", [2.7, True, Fraction(2), "3", "9" * 5000],
                             ids=["float", "bool", "Fraction", "text", "long-text"])
    def test_stacked_parameter_is_not_converted(self, param):
        with pytest.raises(BadParameter, match="neighborhood parameter must be"):
            neighborhood_of(BugEyedSpace(2), Vertical(1), param)

    @pytest.mark.parametrize("max_param", [0, -3, 2.5, True, "64"],
                             ids=["zero", "negative", "float", "bool", "text"])
    def test_grid_size_must_be_a_positive_int(self, max_param):
        pair = [Base(HALF), Base(Fraction(1, 3))]
        assert grid_witness_search(T1_ONE, pair, 1) is None
        assert grid_witness_search(T1_ONE, pair, 64) is not None
        with pytest.raises(BadParameter, match="grid size must be"):
            grid_witness_search(T1_ONE, pair, max_param)
