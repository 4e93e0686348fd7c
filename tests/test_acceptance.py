"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact (integer/rational equality); each criterion also
enforces its runtime budget.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from hausnum.constructions import (
    doubled_point_topology,
    filtered_four_point,
    three_point_example,
    two_block_topology,
)
from hausnum.core import PointSet, subspace, topology_from_preorder
from hausnum.enumeration import (
    count_by_hausdorff,
    enumerate_labeled,
    labeled_and_t0_counts,
    naive_counts,
    stirling_consistency,
)
from hausnum.separation import (
    axioms_report,
    hausdorff_number,
    hausdorff_number_oracle,
    is_n_hausdorff,
)
from hausnum.symbolic import (
    OMEGA,
    OMEGA_ONE,
    Base,
    BugEyedSpace,
    Finite,
    Vertical,
    grid_witness_search,
    hausdorff_number_symbolic,
    intersection_nonempty,
    largest_nonseparable_set,
    separable,
    t1_status,
)

from conftest import random_preorder, run_python


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} blew its budget: {elapsed:.1f}s >= {budget_seconds}s")
    print(f"[PASS] criterion {number}: {label} ({elapsed:.2f}s)")


def test_criterion_1_oracle_equivalence():
    with criterion(1, "closed form == oracle (n=2..4 exhaustive, 200 random n=5)", 60):
        cases = 0
        for n in (2, 3, 4):
            for t in enumerate_labeled(n):
                assert hausdorff_number(t).value == hausdorff_number_oracle(t).value
                cases += 1
        assert cases == 4 + 29 + 355

        rng = random.Random(20260809)
        for _ in range(200):
            t = topology_from_preorder(random_preorder(5, rng))
            assert hausdorff_number(t).value == hausdorff_number_oracle(t).value


def test_criterion_2_named_constructions():
    with criterion(2, "named constructions match their claimed H values", 10):
        three = three_point_example()
        assert hausdorff_number(three).value == 3
        assert not axioms_report(three).hausdorff

        four = filtered_four_point()
        assert is_n_hausdorff(four, 3)
        assert not axioms_report(four).discrete

        for n in range(3, 9):
            block = two_block_topology(n)
            assert is_n_hausdorff(block, n)
            assert not axioms_report(block).discrete
            assert hausdorff_number(block).value == n
            if n <= 5:
                assert hausdorff_number_oracle(block).value == n

            doubled = doubled_point_topology(n)
            assert is_n_hausdorff(doubled, 3)
            assert not axioms_report(doubled).discrete


def test_criterion_3_hausdorff_implies_discrete():
    with criterion(3, "H = 2 forces the discrete topology (n=2..4 exhaustive)", 30):
        for n in (2, 3, 4):
            for t in enumerate_labeled(n):
                if hausdorff_number(t).value == 2:
                    assert all(t.is_open([p]) for p in range(n))


EXPECTED_LABELED = [1, 4, 29, 355, 6942]
EXPECTED_CLASSES = [1, 3, 9, 33, 139]
EXPECTED_T0 = [1, 3, 19, 219]


def test_criterion_4_enumeration_totals():
    with criterion(4, "labeled/class/T0 totals for n=1..5 with independent checks", 120):
        for n in range(1, 6):
            table = count_by_hausdorff(n, use_cache=False)
            assert table.labeled_total == EXPECTED_LABELED[n - 1]
            assert table.class_total == EXPECTED_CLASSES[n - 1]
            if n <= 4:
                assert table.t0_labeled_count == EXPECTED_T0[n - 1]
        # independent reproduction: naive open-family filter at n <= 3, and
        # the same fully independent code path as the n=4 cross-check
        for n in (1, 2, 3):
            assert naive_counts(n) == (EXPECTED_LABELED[n - 1], EXPECTED_T0[n - 1])
        assert naive_counts(4) == (EXPECTED_LABELED[3], EXPECTED_T0[3])


def test_criterion_4_stretch_n6_labeled():
    with criterion(4, "stretch: labeled count at n=6", 300):
        assert labeled_and_t0_counts(6)[0] == 209527


def test_criterion_5_stirling_identity():
    with criterion(5, "T(n) = sum S(n,k) * T0(k) for n=1..5", 120):
        for n in range(1, 6):
            report = stirling_consistency(n)
            assert report.holds, (
                f"n={n}: T={report.topology_count} vs sum={report.combination_total}")


def test_criterion_6_subspace_monotonicity():
    with criterion(6, "H(subspace) <= H(space) for all n<=4 and |S|>=2", 120):
        for n in (2, 3, 4):
            for t in enumerate_labeled(n):
                h = hausdorff_number(t).value
                for mask in range(1, 1 << n):
                    if mask.bit_count() < 2:
                        continue
                    sub = subspace(t, PointSet(n, mask)).topology
                    assert hausdorff_number(sub).value <= h


def test_criterion_7_symbolic_spaces():
    with criterion(7, "symbolic H values, T1 contrast, hub non-separability", 5):
        for v in range(1, 11):
            space = BugEyedSpace(v, t1_variant=True)
            assert hausdorff_number_symbolic(space) == Finite(v + 2)
            hub = largest_nonseparable_set(space)
            assert len(hub) == v + 1
            assert not separable(space, hub).separable

        assert hausdorff_number_symbolic(BugEyedSpace(OMEGA, True)) == OMEGA_ONE

        punctured = BugEyedSpace(1, t1_variant=True)
        unpunctured = BugEyedSpace(1, t1_variant=False)
        assert t1_status(punctured, Vertical(1), Base(Fraction(1, 2))).holds
        assert not t1_status(unpunctured, Vertical(1), Base(Fraction(1, 2))).holds

        pair = [Base(Fraction(1, 2)), Vertical(1)]
        for count in (1, 3, OMEGA):
            for t1_variant in (True, False):
                verdict = separable(BugEyedSpace(count, t1_variant), pair)
                assert not verdict.separable


def _sample_symbolic_set(space: BugEyedSpace, rng: random.Random, size: int):
    points = set()
    while len(points) < size:
        if rng.random() < 0.5:
            points.add(Base(Fraction(rng.randrange(33), 32)))
        else:
            points.add(Vertical(rng.randrange(1, space.vertical_count + 1)))
    return list(points)


def test_criterion_8_grid_cross_validation():
    with criterion(8, "decision rule == bounded witness search on 1000 random sets", 60):
        rng = random.Random(0xB0B)
        for trial in range(1000):
            space = BugEyedSpace(rng.choice([1, 2, 3, 5]),
                                 t1_variant=bool(trial % 2))
            points = _sample_symbolic_set(space, rng, rng.randrange(2, 7))
            verdict = separable(space, points)
            found = grid_witness_search(space, points)
            assert verdict.separable == (found is not None)
            if verdict.separable:
                # both the rule's witness and the search's witness re-verify
                assert intersection_nonempty(
                    [nb for _, nb in verdict.witness]) is None
                assert intersection_nonempty(
                    [nb for _, nb in found]) is None


def test_criterion_9_parallel_determinism(tmp_path):
    with criterion(9, "enumerate n=5 byte-identical for jobs=1 and jobs=8", 300):
        outputs = []
        for jobs in (1, 8):
            cache = tmp_path / f"cache-{jobs}"
            proc = run_python(["-m", "hausnum", "enumerate", "5", "--jobs", str(jobs),
                               "--format", "json", "--cache-dir", str(cache)], timeout=280)
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        table = json.loads(outputs[0])
        assert table["labeled_total"] == 6942
        assert table["class_total"] == 139
