import json
import re

import pytest

from hausnum import constructions
from hausnum.constructions import (
    build_example,
    doubled_point_topology,
    export_example,
    filtered_four_point,
    three_point_example,
    two_block_topology,
)
from hausnum.core import subspace, validate_topology
from hausnum.enumeration import canonical_form
from hausnum.errors import BadParameter, ConstructionClaimError, ParseError
from hausnum.separation import (
    analysis_report,
    axioms_report,
    hausdorff_number,
    hausdorff_number_oracle,
    is_n_hausdorff,
    is_separable,
)

from conftest import run_main


class TestThreePointExample:
    def test_opens(self):
        t = three_point_example()
        assert t.open_masks == (0, 0b001, 0b110, 0b111)

    def test_hausdorff_number(self):
        assert hausdorff_number(three_point_example()).value == 3

    def test_full_set_separable(self):
        assert is_separable(three_point_example(), [0, 1, 2]).separable

    def test_not_discrete_not_hausdorff_compact(self):
        report = axioms_report(three_point_example())
        assert not report.discrete
        assert not report.hausdorff
        assert report.compact


class TestTwoBlockTopology:
    def test_three_points_equals_three_point_example(self):
        assert two_block_topology(3, 0) == three_point_example()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exact_h_confirmed_by_oracle(self, n):
        t = two_block_topology(n)
        assert hausdorff_number(t).value == n
        assert hausdorff_number_oracle(t).value == n

    def test_five_points(self):
        assert hausdorff_number(two_block_topology(5)).value == 5

    def test_two_points_degenerates_to_discrete(self):
        t = two_block_topology(2)
        assert len(t.opens) == 4
        assert hausdorff_number(t).value == 2

    def test_different_base_points_homeomorphic(self):
        forms = {canonical_form(two_block_topology(4, x0)) for x0 in range(4)}
        assert len(forms) == 1

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            two_block_topology(1)
        with pytest.raises(BadParameter):
            two_block_topology(3, 3)

    @pytest.mark.parametrize("x0", [True, False, 3, -1, "1", 1.0])
    def test_bool_base_point_refused_as_out_of_range(self, x0):
        with pytest.raises(BadParameter) as info:
            two_block_topology(3, x0)
        assert str(info.value) == f"base point {x0} not in 0..2"

    def test_machine_word_sized_space(self):
        # the representation cap: one 64-bit mask per point set
        t = two_block_topology(64, 17)
        assert hausdorff_number(t).value == 64
        assert len(hausdorff_number(t).largest_nonseparable) == 63


class TestFilteredFourPoint:
    def test_family_is_closed(self):
        t = filtered_four_point()
        assert validate_topology(4, t.opens) == t
        assert len(t.opens) == 12

    def test_h_three_by_oracle_with_extremal_pair(self):
        t = filtered_four_point()
        oracle = hausdorff_number_oracle(t)
        assert oracle.value == 3
        assert not is_separable(t, [0, 2]).separable  # the pair {w, y}

    def test_xz_subspace_discrete(self):
        sub = subspace(filtered_four_point(), [1, 3]).topology
        assert len(sub.opens) == 4
        assert hausdorff_number(sub).value == 2


class TestDoubledPointTopology:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exact_h_confirmed_by_oracle(self, n):
        t = doubled_point_topology(n)
        assert hausdorff_number(t).value == 3
        assert hausdorff_number_oracle(t).value == 3

    def test_special_point_not_isolated(self):
        t = doubled_point_topology(8)
        assert not t.is_open([0])
        assert not axioms_report(t).discrete

    def test_only_nonseparable_pair_is_the_doubled_one(self):
        t = doubled_point_topology(3)
        verdicts = {
            (a, b): is_separable(t, [a, b]).separable
            for a in range(3) for b in range(a + 1, 3)
        }
        assert verdicts == {(0, 1): False, (0, 2): True, (1, 2): True}

    def test_triples_always_separable(self):
        from itertools import combinations

        for n in (3, 4, 5):
            t = doubled_point_topology(n)
            for triple in combinations(range(n), 3):
                assert is_separable(t, list(triple)).separable

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            doubled_point_topology(2)
        with pytest.raises(BadParameter):
            doubled_point_topology(4, 1, 1)

    @pytest.mark.parametrize("special", [(True, 2), (2, False), (4, 1), (0, -1),
                                         ("1", 2), (0, 2.0)])
    def test_bool_special_point_refused_as_out_of_range(self, special):
        with pytest.raises(BadParameter) as info:
            doubled_point_topology(4, *special)
        assert str(info.value) == "special points must lie in 0..3"


class TestContrast:
    def test_doubled_stays_3_hausdorff_two_block_does_not(self):
        for n in range(3, 9):
            assert is_n_hausdorff(doubled_point_topology(n), 3)
            assert not axioms_report(doubled_point_topology(n)).discrete
            assert is_n_hausdorff(two_block_topology(n), n)
            if n >= 4:
                assert not is_n_hausdorff(two_block_topology(n), n - 1)


class TestRegistry:
    def test_build_by_name(self):
        assert build_example("three-point")[1] == three_point_example()
        assert build_example("two-block:5")[1] == two_block_topology(5)
        assert build_example("doubled:4")[1] == doubled_point_topology(4)
        assert build_example("four-point")[1] == filtered_four_point()

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            build_example("moebius")
        with pytest.raises(ParseError):
            build_example("two-block:x")

    def test_export_carries_name(self):
        doc = export_example("two-block:3")
        assert doc["name"] == "two-block:3"
        assert doc["format"] == "finite-topology/v1"
        assert doc["opens"] == [[], [0], [1, 2], [0, 1, 2]]


class TestClaims:
    """The claims table: each constructor checks all of its kind's claims,
    and ``example --verify`` reports the same ones."""

    @pytest.mark.parametrize("build, args, forced, label", [
        (three_point_example, (), {"hausdorff_number": 2}, "hausdorff number is 3"),
        (three_point_example, (), {"compact": False}, "compact"),
        (filtered_four_point, (), {"t1": True}, "t0 but not t1"),
        (filtered_four_point, (), {"hausdorff_number": 4}, "hausdorff number is 3"),
        (two_block_topology, (4,), {"hausdorff_number": 5}, "hausdorff number is 4"),
        (two_block_topology, (4,), {"discrete": True}, "not discrete"),
        (doubled_point_topology, (5,), {"discrete": True}, "not discrete"),
        (doubled_point_topology, (5,), {"hausdorff_number": 4}, "hausdorff number is 3"),
    ])
    def test_false_claim_raises_naming_it(self, monkeypatch, build, args, forced, label):
        monkeypatch.setattr(constructions, "analysis_report",
                            lambda topology: {**analysis_report(topology), **forced})
        with pytest.raises(ConstructionClaimError, match=re.escape(f"claim {label!r}")):
            build(*args)

    def test_every_claim_is_evaluated_on_one_report(self, monkeypatch):
        labels = [label for label, _ in constructions.CLAIMS["two-block"](4)]
        reports, checked = [], []

        def recording(topology):
            reports.append(topology)
            return analysis_report(topology)

        monkeypatch.setattr(constructions, "analysis_report", recording)
        monkeypatch.setattr(constructions, "CLAIMS", {
            kind: lambda n, claims=claims: [
                (label, lambda report, label=label, holds=holds:
                 checked.append(label) or holds(report))
                for label, holds in claims(n)]
            for kind, claims in constructions.CLAIMS.items()})
        topology = two_block_topology(4)
        assert checked == labels
        assert reports == [topology]

    @pytest.mark.parametrize("argv", [
        ["example", "two-block:4", "--verify"], ["example", "doubled:6", "--verify"],
        ["example", "two-block:4"], ["example", "doubled:6"], ["example", "three-point"]])
    def test_one_report_per_example(self, monkeypatch, argv):
        # the --verify checks are the verdicts the constructor reached, not a second report
        calls = []
        monkeypatch.setattr(constructions, "analysis_report",
                            lambda topology: calls.append(topology) or analysis_report(topology))
        code, _, _ = run_main(argv)
        assert code == 0
        assert len(calls) == 1

    def test_false_claim_exits_two_from_the_cli(self, monkeypatch):
        monkeypatch.setattr(constructions, "analysis_report",
                            lambda topology: {**analysis_report(topology), "compact": False})
        code, out, err = run_main(["example", "three-point", "--verify"])
        assert (code, out) == (2, "")
        assert err.startswith("error (construction-claim): ")

    @pytest.mark.parametrize("name", ["three-point", "four-point", "two-block:2",
                                      "two-block:3", "two-block:64", "doubled:3",
                                      "doubled:12"])
    def test_constructor_checks_the_verify_labels(self, monkeypatch, name):
        code, out, _ = run_main(["example", name, "--verify"])
        assert code == 0
        reported = [c["check"] for c in json.loads(out)["checks"]]

        checked = []

        def recording(claims):
            def kind_claims(n):
                return [(label, lambda report, label=label, holds=holds:
                         checked.append(label) or holds(report))
                        for label, holds in claims(n)]
            return kind_claims

        monkeypatch.setattr(constructions, "CLAIMS", {
            kind: recording(claims) for kind, claims in constructions.CLAIMS.items()})
        build_example(name)
        assert checked == [label for label in reported
                           if label != "oracle agrees with closed form"]
        assert len(checked) >= 2
