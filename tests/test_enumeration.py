import functools
import hashlib
import itertools
import json
import math
import os
import time
import tracemalloc
from fractions import Fraction

import pytest

from hausnum.constructions import doubled_point_topology, two_block_topology
from hausnum.core import Preorder, topology_from_preorder, validate_topology
from hausnum.enumeration import (
    CanonicalForm,
    CountsTable,
    _classes,
    _encode,
    _least_rows,
    _posets,
    _tables,
    _walk,
    canonical_form,
    count_by_hausdorff,
    enumerate_classes,
    enumerate_labeled,
    enumerate_preorders,
    labeled_and_t0_counts,
    naive_counts,
    naive_enumerate_families,
    stirling2,
    stirling_consistency,
)
from hausnum.errors import BadParameter, ParseError, PointOutOfRange, TooLarge
from hausnum.limits import TABLE_MAX_POINTS
from hausnum.separation import hausdorff_number

from conftest import UNREADABLE_FILES, random_preorder, run_main, run_python


def _updated_rows(doc, *updates):
    """``doc`` with ``updates[i]`` merged into its row i."""
    rows = doc["rows"]
    return {**doc, "rows": [{**row, **u} for row, u in zip(rows, updates)] + rows[len(updates):]}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


# Edits of a table's document that make it no counts-table document, or the
# document of no consistent table: (id, n, t0_only, edit returning the new
# document).  One table feeds both the reader's test and the cache's.
BAD_COUNTS = [
    ("json-array", 2, False, lambda doc: [doc]),
    ("row-is-a-list", 2, False,
     lambda doc: {**doc, "rows": [list(doc["rows"][0].values()), *doc["rows"][1:]]}),
    ("text-hausdorff-number", 2, False, lambda doc: _updated_rows(doc, {"hausdorff_number": "2"})),
    ("text-n", 2, False, lambda doc: {**doc, "n": "2"}),
    ("missing-t0-only", 2, False, lambda doc: _without(doc, "t0_only")),
    ("rows-an-object", 2, False, lambda doc: {**doc, "rows": {}}),
    ("bool-count", 2, False, lambda doc: _updated_rows(doc, {"class_count": True})),
    ("extra-key", 2, False, lambda doc: {**doc, "extra": 1}),
    ("duplicate-row", 2, False, lambda doc: {**doc, "rows": doc["rows"] + doc["rows"][-1:]}),
    ("row-is-a-number", 2, False, lambda doc: {**doc, "rows": [1]}),
    ("empty-object", 2, False, lambda doc: {}),
    ("stale-version", 2, False,
     lambda doc: {**doc, "cache_version": "stale", "labeled_total": 999}),
    ("missing-rows", 2, False, lambda doc: _without(doc, "rows")),
    ("rows-not-matching-totals", 2, False, lambda doc: _updated_rows(doc, {"labeled_count": 999})),
    ("text-count", 2, False, lambda doc: _updated_rows(doc, {"class_count": "1"})),
    # the totals still equal the row sums: 4 = -1 + 5
    ("count-below-one", 2, False,
     lambda doc: _updated_rows(doc, {"labeled_count": -1}, {"labeled_count": 5})),
    ("hausdorff-number-past-n-plus-one", 2, False,
     lambda doc: _updated_rows(doc, {}, {"hausdorff_number": 4})),
    # rows (1, 1) and (3, 2) become (1, 2) and (3, 1): the class total holds
    ("more-classes-than-labeled", 2, False,
     lambda doc: _updated_rows(doc, {"class_count": 2}, {"class_count": 1})),
    ("t0-count-past-labeled-total", 3, False, lambda doc: {**doc, "t0_labeled_count": 12345}),
    ("t0-only-t0-count-below-labeled-total", 3, True,
     lambda doc: {**doc, "t0_labeled_count": 18}),
]
BAD_COUNTS_CASES = pytest.mark.parametrize(
    "n, t0_only, edit", [case[1:] for case in BAD_COUNTS], ids=[case[0] for case in BAD_COUNTS])


# OEIS, from n = 0: topologies (A000798), their classes (A001930), T0
# topologies (A001035) and posets (A000112).
A000798 = (1, 1, 4, 29, 355, 6942, 209527, 9535241, 642779354, 63260289423)
A001930 = (1, 1, 3, 9, 33, 139, 718, 4535, 35979, 363083)
A001035 = (1, 1, 3, 19, 219, 4231, 130023, 6129859, 431723379, 44511042511)
A000112 = (1, 1, 2, 5, 16, 63, 318, 2045, 16999, 183231)
LABELED = dict(enumerate(A000798))
CLASSES = dict(enumerate(A001930))
T0_LABELED = dict(enumerate(A001035))

# n = 6 rows of the direct walk: {H: labeled count}, {H: class count}
SIX_ALL = ({2: 1, 3: 1821, 4: 23700, 5: 62980, 6: 73401, 7: 47624},
           {2: 1, 3: 18, 4: 96, 5: 199, 6: 218, 7: 186})
SIX_T0 = ({2: 1, 3: 1056, 4: 14865, 5: 41660, 6: 47055, 7: 25386},
          {2: 1, 3: 10, 4: 47, 5: 96, 6: 101, 7: 63})
# n = 7 and n = 8 rows of the quotient engine that deduplicated every child
# poset by its canonical form in one dict, before canonical augmentation; the
# second derivation, ``reference_table``, gives the same rows, live at n = 7
# (``TestReferenceTables``) and once by hand at n = 8 (about 11 s)
SEVEN_ALL = ({2: 1, 3: 11592, 4: 351239, 5: 1649760, 6: 2992619, 7: 2904027,
              8: 1626003},
             {2: 1, 3: 25, 4: 249, 5: 800, 6: 1300, 7: 1256, 8: 904})
SEVEN_T0 = ({2: 1, 3: 6321, 4: 214473, 5: 1093995, 6: 2023035, 7: 1881873,
             8: 910161},
            {2: 1, 3: 14, 4: 119, 5: 388, 6: 629, 7: 576, 8: 318})
EIGHT_ALL = ({2: 1, 3: 80963, 4: 5919312, 5: 49717479, 6: 139724074, 7: 197999410,
              8: 166774084, 9: 82564031},
             {2: 1, 3: 40, 4: 627, 5: 3264, 6: 7536, 7: 10212, 8: 8860, 9: 5439})
EIGHT_T0 = ({2: 1, 3: 41392, 4: 3532256, 5: 32985624, 6: 97295870, 7: 137695208,
             8: 111134156, 9: 49038872},
            {2: 1, 3: 21, 4: 292, 5: 1577, 6: 3807, 7: 5094, 8: 4162, 9: 2045})
# n = 9 rows of the poset engine as of canonical augmentation, which takes 10-13 s
# there and is not run by the tests; ``TestRowIdentities`` checks their totals,
# the rows H <= 3 and the row H = 10 against closed forms (all topologies, then T0).
# ``reference_table`` gave the same rows and T0 count once by hand (about 130 s)
NINE_ALL = ({2: 1, 3: 608832, 4: 112984855, 5: 1733305035, 6: 7610285025,
             7: 15515159016, 8: 18353471700, 9: 13787669817, 10: 6146805142},
            {2: 1, 3: 55, 4: 1591, 5: 13305, 6: 45763, 7: 84367, 8: 98929, 9: 77654,
             10: 41418})
NINE_T0 = ({2: 1, 3: 293607, 4: 66203028, 5: 1151604468, 6: 5406567894,
            7: 11271399174, 8: 13194146196, 9: 9535317732, 10: 3885510411},
           {2: 1, 3: 29, 4: 719, 5: 6450, 6: 23785, 7: 45132, 8: 51836, 9: 38280,
            10: 16999})


@functools.cache
def engine_tables(n):
    """The all and T0 tables of one engine pass, computed once per test run."""
    return _tables(n)


def engine_table(n, t0_only):
    """``count_by_hausdorff(n)`` without the cache, from ``engine_tables``."""
    return engine_tables(n)[t0_only]


@functools.cache
def engine_classes(n):
    """``_classes(n)`` as a list, one engine pass per test run."""
    return list(_classes(n))


def permute_topology(t, perm):
    return validate_topology(
        t.n, [[perm[p] for p in u] for u in t.opens])


@functools.cache
def classes(n):
    """``enumerate_classes(n)`` as a list, computed once per test run."""
    return list(enumerate_classes(n))


def walk_classes(n):
    """The walk's class map, the reference for ``enumerate_classes``.

    The first leaf of the walk with each canonical form, i.e. the member of
    least row tuple, as (form, representative) in ascending encoding order.
    """
    first = {}
    for rows in _walk(n):
        first.setdefault(_least_rows(rows, every=True)[0], rows)
    return [(CanonicalForm(_encode(enc)), topology_from_preorder(Preorder(n, first[enc])))
            for enc in sorted(first)]


def class_lines(n):
    """The text that the pins of ``enumerate_classes`` hash, one line per class."""
    for form, rep in classes(n):
        masks = ",".join(map(str, rep.open_masks))
        yield f"{n} {form.encoding.hex()} {masks}\n"


def walk_histograms(n, t0_only, classes=True):
    """The direct walk's reference for the tables: ``(hist, t0_count, class_hist)``.

    ``hist`` and ``class_hist`` map Hausdorff number to labeled and class
    counts, over T0 topologies only with ``t0_only``; ``t0_count`` counts the
    T0 topologies (pairwise distinct rows) among all of them.  Without
    ``classes`` no canonical form is computed and ``class_hist`` stays empty.
    """
    hist, class_hist, seen = {}, {}, set()
    t0_count = 0
    for rows in _walk(n):
        h = 1 + max(sum(rows[a] >> x & 1 for a in range(n)) for x in range(n))
        t0 = len(set(rows)) == n
        t0_count += t0
        if t0_only and not t0:
            continue
        hist[h] = hist.get(h, 0) + 1
        if not classes:
            continue
        enc = _least_rows(rows, every=True)[0]
        if enc not in seen:
            seen.add(enc)
            class_hist[h] = class_hist.get(h, 0) + 1
    return hist, t0_count, class_hist


@functools.cache
def reference_posets(k):
    """Every unlabeled poset on k points once, as (rows, automorphisms).

    The second derivation of the tables, which shares nothing with the engine
    but ``_least_rows``: each poset on k - 1 points grows by a new maximal
    point over each of its down-sets, and one child per canonical form is kept,
    that form itself.  Aut(P) is the set of labelings that
    ``_least_rows(P, every=True)`` returns, as P is its own least relabeling.
    """
    if k == 0:
        return [((), [()])]
    x, children = k - 1, {}
    for rows, _ in reference_posets(k - 1):
        below = [sum(1 << a for a in range(x) if rows[a] >> b & 1) for b in range(x)]
        for d in range(1 << x):
            if all(below[b] & ~d == 0 for b in range(x) if d >> b & 1):  # a down-set
                child = tuple(row | 1 << x if d >> a & 1 else row
                              for a, row in enumerate(rows)) + (1 << x,)
                children.setdefault(_least_rows(child, every=True)[0], None)
    return [(form, _least_rows(form, every=True)[1]) for form in children]


def compositions(n, k):
    """Every composition of n into k positive parts."""
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in compositions(n - first, k - 1):
            yield (first, *rest)


def reference_table(n, t0_only):
    """``({H: (labeled count, class count)}, T0 labeled count)`` from ``reference_posets``.

    A poset P on k points with block sizes s (a composition of n) has H = 1 +
    the largest total size of the blocks at or below one block.  The labeled
    topologies with T0 quotient P number the sum over s of multinomial(n; s)
    / |Aut P|, and their classes are the Aut(P)-orbits of the compositions,
    counted by Burnside: the mean over Aut(P) of the compositions each fixes.
    """
    labeled, classes, t0_count = {}, {}, 0
    for k in range(n if t0_only else 1, n + 1):
        for rows, autos in reference_posets(k):
            unders = [[a for a in range(k) if rows[a] >> b & 1] for b in range(k)]
            multinomials, fixed = {}, {}
            for sizes in compositions(n, k):
                h = 1 + max(sum(sizes[a] for a in under) for under in unders)
                multinomials[h] = multinomials.get(h, 0) + math.factorial(n) // math.prod(
                    map(math.factorial, sizes))
                fixed[h] = fixed.get(h, 0) + sum(
                    all(sizes[auto[a]] == sizes[a] for a in range(k)) for auto in autos)
            for h, total in multinomials.items():
                assert total % len(autos) == 0 and fixed[h] % len(autos) == 0
                labeled[h] = labeled.get(h, 0) + total // len(autos)
                classes[h] = classes.get(h, 0) + fixed[h] // len(autos)
            if k == n:
                t0_count += math.factorial(n) // len(autos)
    return {h: (labeled[h], classes[h]) for h in sorted(labeled)}, t0_count


@pytest.mark.parametrize("call, error, message", [
    (lambda: count_by_hausdorff(True, use_cache=False), TooLarge,
     "point count must be a positive integer, got True"),
    (lambda: next(enumerate_classes(True)), TooLarge,
     "point count must be a positive integer, got True"),
    (lambda: labeled_and_t0_counts(True), TooLarge,
     "point count must be a positive integer, got True"),
    (lambda: stirling_consistency(True), TooLarge,
     "point count must be a positive integer, got True"),
    (lambda: validate_topology(True, [[], [0]]), PointOutOfRange,
     "point count must be in 1..64, got True"),
    (lambda: count_by_hausdorff(2, jobs="2", use_cache=False), TooLarge,
     "worker count must be >= 1, got '2'"),
    (lambda: count_by_hausdorff(2, jobs=True, use_cache=False), TooLarge,
     "worker count must be >= 1, got True"),
    (lambda: two_block_topology("3"), PointOutOfRange,
     "point count must be in 1..64, got '3'"),
    (lambda: two_block_topology(True), PointOutOfRange,
     "point count must be in 1..64, got True"),
    (lambda: doubled_point_topology("4"), PointOutOfRange,
     "point count must be in 1..64, got '4'"),
    (lambda: stirling2(True, 1), BadParameter,
     "Stirling numbers take integers, got True and 1"),
    (lambda: stirling2(3, 2.5), BadParameter,
     "Stirling numbers take integers, got 3 and 2.5"),
    (lambda: stirling2("a", 1), BadParameter,
     "Stirling numbers take integers, got 'a' and 1"),
], ids=["table", "classes", "labeled", "stirling", "topology", "jobs-text", "jobs-bool",
        "two-block-text", "two-block-bool", "doubled-text", "stirling2-bool",
        "stirling2-float", "stirling2-text"])
def test_bool_and_non_int_counts_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


class TestWalk:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_kept_leaves_are_distinct_and_ascending(self, n):
        # each leaf is a tuple of its own, kept as it was yielded
        leaves = list(_walk(n))
        assert len(set(leaves)) == len(leaves) == LABELED[n]
        assert leaves == sorted(leaves)

    @pytest.mark.parametrize("call", [
        lambda: next(_walk(8)),
        lambda: next(enumerate_preorders(8)),
        lambda: next(enumerate_labeled(8)),
        lambda: labeled_and_t0_counts(8),
    ], ids=["walk", "preorders", "labeled", "counts"])
    def test_past_the_cap_refused_before_a_leaf(self, call):
        with pytest.raises(TooLarge) as info:
            call()
        assert str(info.value) == "supported up to 7 points here, got 8"


class TestEnumerateLabeled:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_totals(self, n):
        labeled, t0 = labeled_and_t0_counts(n)
        assert (labeled, t0) == (LABELED[n], T0_LABELED[n])
        assert count_by_hausdorff(n, use_cache=False).t0_labeled_count == t0

    def test_no_duplicates_and_all_valid(self):
        for n in (1, 2, 3, 4):
            seen = set()
            for t in enumerate_labeled(n):
                assert t not in seen
                seen.add(t)
                assert validate_topology(n, t.opens) == t
            assert len(seen) == LABELED[n]

    def test_no_duplicates_n5(self):
        seen = set()
        for t in enumerate_labeled(5):
            assert t not in seen
            seen.add(t)
        assert len(seen) == LABELED[5]

    def test_matches_naive_family_filter(self):
        # the naive open-family filter shares nothing with the preorder path
        for n in (1, 2, 3):
            naive = set(naive_enumerate_families(n))
            enumerated = {t.open_masks for t in enumerate_labeled(n)}
            assert naive == enumerated

    def test_naive_agreement_n4(self):
        assert naive_counts(4) == (LABELED[4], T0_LABELED[4])

    def test_deterministic_order(self):
        first = [t.open_masks for t in enumerate_labeled(3)]
        second = [t.open_masks for t in enumerate_labeled(3)]
        assert first == second

    def test_held_topologies_take_about_the_memory_of_their_preorders(self):
        # each holds its rows until its open family is read: 1.2 MB against 1.1 MB for the
        # preorders at n = 5, and 5.9 MB when each was built with its open family
        held = {}
        for enumerate_ in (enumerate_labeled, enumerate_preorders):
            tracemalloc.start()
            try:
                stream = list(enumerate_(5))
                held[enumerate_] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            del stream
        assert held[enumerate_labeled] <= 1.5 * held[enumerate_preorders]

    def test_too_large(self):
        with pytest.raises(TooLarge):
            next(enumerate_labeled(8))
        with pytest.raises(TooLarge):
            n = TABLE_MAX_POINTS + 1
            big = validate_topology(n, [[], list(range(n))])
            canonical_form(big)


class TestCanonicalForm:
    def test_encoding_is_one_byte_a_row_to_eight_points_then_wider_in_row_order(self):
        """Engine-free: ``bytes(rows)`` for n <= 8; n * ceil(n / 8) bytes at n = 9 and 16,
        where the encodings sort as their row tuples do."""
        import random


        rng = random.Random(1016)
        for n in (*range(1, 10), 16):
            full = (1 << n) - 1
            cases = [tuple(full >> a << a for a in range(n)),  # the chain
                     tuple(1 << a for a in range(n))]  # the antichain
            cases += [random_preorder(n, rng).rows for _ in range(30)]
            for rows in cases:
                assert len(_encode(rows)) == n * ((n + 7) // 8)
                if n <= 8:
                    assert _encode(rows) == bytes(rows)
            assert sorted(map(_encode, cases)) == list(map(_encode, sorted(cases)))
        # the 9-point chain: its row 0, 511, does not fit one byte
        assert _encode(tuple(511 >> a << a for a in range(9))).hex() == (
            "01ff01fe01fc01f801f001e001c001800100")

    def test_discrete_fixed_under_permutations(self):
        from hausnum.core import generate_from_subbasis

        t = generate_from_subbasis(4, [[p] for p in range(4)])
        forms = {canonical_form(permute_topology(t, perm)).encoding
                 for perm in itertools.permutations(range(4))}
        assert len(forms) == 1

    def test_two_block_base_point_irrelevant(self):
        from hausnum.constructions import two_block_topology

        forms = {canonical_form(two_block_topology(3, x0)).encoding
                 for x0 in range(3)}
        assert len(forms) == 1

    def test_sierpinski_vs_twin_and_discrete(self):
        sierpinski = validate_topology(2, [[], [0], [0, 1]])
        twin = validate_topology(2, [[], [1], [0, 1]])
        discrete = validate_topology(2, [[], [0], [1], [0, 1]])
        assert canonical_form(sierpinski) == canonical_form(twin)
        assert canonical_form(sierpinski) != canonical_form(discrete)

    def test_invariance_under_random_relabelings(self, rng):
        for n in (3, 4, 5):
            for t in itertools.islice(enumerate_labeled(n), 0, 60, 7):
                reference = canonical_form(t)
                for _ in range(5):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    assert canonical_form(permute_topology(t, perm)) == reference

    def test_invariance_at_six_points(self, rng):
        from hausnum.core import topology_from_preorder


        for _ in range(10):
            t = topology_from_preorder(random_preorder(6, rng))
            reference = canonical_form(t)
            for _ in range(4):
                perm = list(range(6))
                rng.shuffle(perm)
                assert canonical_form(permute_topology(t, perm)) == reference


    def test_eight_points_match_the_reference_and_relabelings(self):
        """``canonical_form`` reads the table cap: at n = 8 it gives the per-bit
        reference's bytes and is invariant under relabelings."""
        import random


        rng = random.Random(1008)
        # two of the slowest searches over one member per n = 8 class, then seeded samples
        cases = [Preorder(8, rows) for rows in ((225, 210, 180, 120, 16, 32, 64, 128),
                                                (129, 226, 228, 24, 16, 32, 64, 128))]
        cases += [random_preorder(8, rng) for _ in range(40)]
        for preorder in cases:
            t = topology_from_preorder(preorder)
            reference = canonical_form(t)
            assert reference.encoding == _encode(canonical_per_bit(preorder.rows)[0])
            for _ in range(3):
                perm = list(range(8))
                rng.shuffle(perm)
                assert canonical_form(permute_topology(t, perm)) == reference


def canonical_per_bit(rows):
    """The reference for ``_least_rows(rows, every=True)``: each permuted row built bit by bit."""
    n = len(rows)
    colpc = [0] * n
    for row in rows:
        for x in range(n):
            colpc[x] += row >> x & 1
    keys = [(rows[a].bit_count(), colpc[a]) for a in range(n)]
    order = sorted(range(n), key=keys.__getitem__)
    blocks = []
    for a in order:
        if blocks and keys[blocks[-1][-1]] == keys[a]:
            blocks[-1].append(a)
        else:
            blocks.append([a])
    best = None
    reaching = []
    for parts in itertools.product(*(itertools.permutations(b) for b in blocks)):
        perm = [p for part in parts for p in part]
        enc = tuple(sum(((rows[perm[i]] >> perm[j]) & 1) << j for j in range(n))
                    for i in range(n))
        if best is None or enc < best:
            best, reaching = enc, [perm]
        elif enc == best:
            reaching.append(perm)
    return best, reaching


class TestCanonicalAgainstPerBit:
    """``_least_rows(rows, every=True)`` gives the reference's bytes and reaching permutations."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_preorder(self, n):
        for rows in _walk(n):
            assert _least_rows(rows, every=True) == canonical_per_bit(rows), rows

    @pytest.mark.parametrize("n, samples", [(6, 150), (7, 60)])
    def test_seeded_samples(self, n, samples):
        import random


        rng = random.Random(1000 + n)
        cases = [tuple(1 << a for a in range(n)), tuple((1 << n) - 1 for _ in range(n))]
        cases += [random_preorder(n, rng).rows for _ in range(samples)]
        for rows in cases:
            assert _least_rows(rows, every=True) == canonical_per_bit(rows), rows

    @pytest.mark.parametrize("rows", [
        (3, 3, 12, 12, 48, 48, 192, 192),
        (15, 15, 15, 15, 240, 240, 240, 240),
        (255, 6, 6, 24, 24, 96, 96, 128),
    ], ids=["four-pairs", "two-quads", "three-pairs-and-a-point-over-a-bottom"])
    def test_interchangeable_blocks_are_tried_once(self, rows):
        # indiscrete blocks of one size with the same points above and below are
        # interchangeable, so one labeling reaches the least rows, not 4!, 2! or 3!
        for cells in (None, [(1 << 8) - 1]):
            least, labelings = _least_rows(rows, cells)
            assert least == _least_rows(rows, cells, every=True)[0]
            assert len(labelings) == 1
            perm = labelings[0]
            assert least == tuple(sum((rows[perm[i]] >> perm[j] & 1) << j for j in range(8))
                                  for i in range(8))

    @pytest.mark.parametrize("n, samples", [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0),
                                            (6, 150), (7, 60)])
    def test_skipping_automorphic_branches_keeps_the_least_rows(self, n, samples):
        # every preorder for n <= 5, the seeded samples above for n = 6, 7
        import random


        if samples:
            rng = random.Random(1000 + n)
            cases = [tuple(1 << a for a in range(n)), tuple((1 << n) - 1 for _ in range(n))]
            cases += [random_preorder(n, rng).rows for _ in range(samples)]
        else:
            cases = _walk(n)
        for rows in cases:
            for cells in (None, [(1 << n) - 1]):
                assert (_least_rows(rows, cells)[0]
                        == _least_rows(rows, cells, every=True)[0]), (rows, cells)


class TestEnumerateClasses:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_class_counts(self, n):
        assert len(classes(n)) == CLASSES[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_the_walks_class_map(self, n):
        # each representative is the first member of its class the walk meets
        assert classes(n) == walk_classes(n)

    def test_forms_and_representatives_pinned(self):
        digest = hashlib.sha256()
        for n in range(1, 6):
            for line in class_lines(n):
                digest.update(line.encode())
        assert digest.hexdigest() == (
            "f15813413328480bc82b79af10400a5241f67a4463890eaea8bf32e054ef3a01")

    @pytest.mark.parametrize("n", [6, 7])
    def test_walks_forms_and_representatives_pinned(self, n):
        # sha256 over the lines of ``walk_classes(n)``, computed before
        # ``enumerate_classes`` moved to the poset engine; n = 7 took 8.7 min
        # on a 2-vCPU VM
        expected = {
            6: "ceedc437c7784869a7262cf1a96b35c6cdb86a09409e4b999d2335f33d0cf77d",
            7: "5cb5692984337db73768894369f0818c41e4932762c5150db5f49aa9abccfee8",
        }
        digest = hashlib.sha256()
        for line in class_lines(n):
            digest.update(line.encode())
        assert digest.hexdigest() == expected[n]

    def test_eight_points_pinned(self):
        # sha256 over the lines of ``enumerate_classes(8)``, computed with its cap
        # lifted to TABLE_MAX_POINTS = 8 before it read that cap
        digest = hashlib.sha256()
        for line in class_lines(8):
            digest.update(line.encode())
        assert digest.hexdigest() == (
            "0111174e35d1e64ae5447135ed391ccc3c030110ba19ad8156d35f6fd78502ca")

    def test_eight_point_representatives_by_brute_force(self):
        """Five seeded representatives on 8 points are each the least row tuple over all
        8! relabelings, taken by brute force without ``_least_rows``.  At least one holds
        two blocks of one key (the points strictly above, strictly below, the block's
        size), which the pruned search tries once."""
        import random


        reps = classes(8)
        tied = 0
        for i in random.Random(8).sample(range(len(reps)), 5):
            rows = reps[i][1]._rows
            assert rows == min(
                tuple(sum((rows[p] >> q & 1) << j for j, q in enumerate(perm)) for p in perm)
                for perm in itertools.permutations(range(8))), rows
            blocks = {}
            for a, up in enumerate(rows):
                down = sum(1 << b for b, row in enumerate(rows) if row >> a & 1)
                key = (up & ~down, down & ~up, (up & down).bit_count())
                blocks.setdefault(key, set()).add(up & down)
            tied += max(map(len, blocks.values())) > 1
        assert tied >= 1

    def test_past_the_cap_refused_at_first_next(self):
        pairs = enumerate_classes(TABLE_MAX_POINTS + 1)
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=f"supported up to {TABLE_MAX_POINTS} points here, "
                                            f"got {TABLE_MAX_POINTS + 1}$"):
            next(pairs)
        assert time.perf_counter() - start < 1.0

    def test_two_point_classes(self):
        reps = [t for _, t in classes(2)]
        sizes = sorted(len(t.opens) for t in reps)
        assert sizes == [2, 3, 4]  # indiscrete, one Sierpinski rep, discrete

    def test_orbit_sizes_sum_to_labeled_total(self):
        import math

        for n in (2, 3, 4):
            orbit_total = 0
            for _, rep in classes(n):
                orbit = set()
                for perm in itertools.permutations(range(n)):
                    orbit.add(permute_topology(rep, perm))
                assert math.factorial(n) % len(orbit) == 0
                orbit_total += len(orbit)
            assert orbit_total == LABELED[n]


class TestCountsTable:
    def test_two_points(self):
        table = count_by_hausdorff(2, use_cache=False)
        assert table.rows == {2: (1, 1), 3: (3, 2)}
        assert (table.labeled_total, table.class_total) == (4, 3)

    def test_one_point(self):
        table = count_by_hausdorff(1, use_cache=False)
        assert table.rows == {2: (1, 1)}

    def test_hausdorff_row_is_discrete_only(self):
        for n in (2, 3, 4, 5, 6):
            for t0_only in (False, True):
                table = count_by_hausdorff(n, use_cache=False, t0_only=t0_only)
                assert table.rows[2] == (1, 1)

    def test_row_keys_within_bounds(self):
        for n in (1, 2, 3, 4, 5):
            table = count_by_hausdorff(n, use_cache=False)
            assert all(2 <= k <= n + 1 for k in table.rows)
            assert sum(c for c, _ in table.rows.values()) == table.labeled_total
            assert sum(c for _, c in table.rows.values()) == table.class_total

    def test_top_value_needs_point_meeting_all(self):
        # H = n+1 iff some point lies in every minimal neighborhood
        from hausnum.core import minimal_neighborhood

        for t in enumerate_labeled(3):
            top = hausdorff_number(t).value == 4
            meets_all = any(
                all(x in minimal_neighborhood(t, a) for a in range(3))
                for x in range(3))
            assert top == meets_all

    @pytest.mark.parametrize("t0_only", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_direct_walk(self, n, t0_only):
        hist, t0_count, class_hist = walk_histograms(n, t0_only)
        table = count_by_hausdorff(n, use_cache=False, t0_only=t0_only)
        assert {h: c for h, (c, _) in table.rows.items()} == hist
        assert {h: c for h, (_, c) in table.rows.items()} == class_hist
        assert table.t0_labeled_count == t0_count

    def test_six_point_labeled_rows_match_direct_walk(self):
        # one walk and no canonical form, so it shares nothing with the
        # engine's quotient step; the class rows are the pins of SIX_ALL
        hist, t0_count, _ = walk_histograms(6, False, classes=False)
        table = engine_table(6, False)
        assert {h: c for h, (c, _) in table.rows.items()} == hist
        assert table.t0_labeled_count == t0_count

    @pytest.mark.parametrize("t0_only, expected", [(False, SIX_ALL), (True, SIX_T0)])
    def test_six_points_pinned(self, t0_only, expected):
        table = engine_table(6, t0_only)
        assert {h: c for h, (c, _) in table.rows.items()} == expected[0]
        assert {h: c for h, (_, c) in table.rows.items()} == expected[1]
        assert table.t0_labeled_count == 130023

    @pytest.mark.parametrize("n, t0_only, expected", [
        (7, False, SEVEN_ALL), (7, True, SEVEN_T0),
        (8, False, EIGHT_ALL), (8, True, EIGHT_T0),
    ])
    def test_seven_and_eight_points_pinned(self, n, t0_only, expected):
        table = engine_table(n, t0_only)
        assert {h: c for h, (c, _) in table.rows.items()} == expected[0]
        assert {h: c for h, (_, c) in table.rows.items()} == expected[1]
        assert table.t0_labeled_count == T0_LABELED[n]

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_totals_match_oeis(self, n):
        table, t0_table = engine_table(n, False), engine_table(n, True)
        assert (table.labeled_total, table.class_total) == (LABELED[n], CLASSES[n])
        assert (t0_table.labeled_total, t0_table.class_total) == (T0_LABELED[n], A000112[n])

    def test_jobs_must_be_positive(self):
        with pytest.raises(TooLarge):
            count_by_hausdorff(2, jobs=0, use_cache=False)

    def test_t0_filter(self):
        table = count_by_hausdorff(3, use_cache=False, t0_only=True)
        assert table.labeled_total == T0_LABELED[3]
        assert table.t0_labeled_count == T0_LABELED[3]

    def test_parallel_equals_serial(self):
        serial = count_by_hausdorff(4, jobs=1, use_cache=False)
        parallel = count_by_hausdorff(4, jobs=4, use_cache=False)
        assert serial == parallel

    def test_csv_shape(self):
        table = count_by_hausdorff(2, use_cache=False)
        assert table.to_csv() == (
            "n,hausdorff_number,labeled_count,class_count\n"
            "2,2,1,1\n"
            "2,3,3,2\n")

    def test_json_roundtrip(self):
        table = count_by_hausdorff(3, use_cache=False)
        assert CountsTable.from_dict(table.to_dict()) == table

    @BAD_COUNTS_CASES
    def test_from_dict_refuses_a_malformed_document(self, n, t0_only, edit):
        """Every row of ``BAD_COUNTS``, the table the cache's test reads too."""
        doc = count_by_hausdorff(n, t0_only=t0_only, use_cache=False).to_dict()
        with pytest.raises(ParseError):
            CountsTable.from_dict(edit(doc))

    def test_too_large(self):
        with pytest.raises(TooLarge):
            count_by_hausdorff(9, use_cache=False)


class TestPosetEngine:
    """The posets of canonical augmentation, and the groups derived for them."""

    @pytest.fixture(scope="class")
    def levels(self):
        # the engine streams; collect it, so that every test sees every level
        levels = [[] for _ in range(8)]
        for rows, autos in _posets(8):
            levels[len(rows) - 1].append((rows, autos))
        return levels

    def test_level_sizes(self, levels):
        assert [len(level) for level in levels] == list(A000112[1:9])

    def test_labelings_sum_to_t0_counts(self, levels):
        # an unlabeled poset P on k points has k!/|Aut P| labelings
        for k, level in enumerate(levels, 1):
            assert sum(math.factorial(k) // len(autos) for _, autos in level) == A001035[k]

    def test_automorphisms_are_distinct_and_map_rows_onto_rows(self, levels):
        for k, level in enumerate(levels, 1):
            for rows, autos in level:
                assert len(set(autos)) == len(autos)
                points = [[b for b in range(k) if row >> b & 1] for row in rows]
                for auto in autos:
                    assert sorted(auto) == list(range(k))
                    bits = [1 << b for b in auto]  # row a maps onto row auto[a]
                    assert [sum(map(bits.__getitem__, up)) for up in points] == [
                        rows[b] for b in auto], (rows, auto)

    def test_tables_keep_one_level_at_a_time(self):
        # 1.1 MB streamed one level at a time; 2.6 MB with every level kept to the end
        tracemalloc.start()
        try:
            count_by_hausdorff(7, use_cache=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestReferenceTables:
    """The engine's tables against ``reference_table``, a second live derivation.

    Run once by hand, it also gives the n = 8 tables of ``engine_table`` (about
    11 s) and the n = 9 pins (about 130 s), both filters; n = 8 is left out
    here so that tier-1 stays near a minute.
    """

    @pytest.mark.parametrize("t0_only", [False, True])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_row_matches_the_engine(self, n, t0_only):
        table = engine_table(n, t0_only)
        assert (table.rows, table.t0_labeled_count) == reference_table(n, t0_only)

    def test_levels_are_the_posets(self):
        for k in range(1, 8):
            posets = reference_posets(k)
            assert len(posets) == A000112[k]
            assert sum(math.factorial(k) // len(autos) for _, autos in posets) == A001035[k]


class TestDuality:
    """Reversing the order maps labeled topologies, classes and T0 spaces onto
    themselves, and turns H = 1 + max |cl{x}| into 1 + max |N(x)|.  So over the
    engine's classes, H and the dual H (1 + the largest total size of the blocks
    at or above a minimal block) have the same labeled and class histograms."""

    @pytest.mark.parametrize("t0_only", [False, True])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_h_and_the_dual_h_share_their_histograms(self, n, t0_only):
        hist, dual_hist, differ = {}, {}, 0
        for rows, sizes, labeled, h in engine_classes(n):
            k = len(rows)
            if t0_only and k < n:
                continue
            dual = 1 + max(sum(sizes[b] for b in range(k) if rows[a] >> b & 1)
                           for a in range(k)
                           if not any(rows[b] >> a & 1 for b in range(k) if b != a))
            differ += dual != h
            for counts, key in ((hist, h), (dual_hist, dual)):
                lab, cls = counts.get(key, (0, 0))
                counts[key] = (lab + labeled, cls + 1)
        assert hist == dual_hist
        assert sum(lab for lab, _ in hist.values()) == (T0_LABELED if t0_only else LABELED)[n]
        assert (differ > 0) == (n >= 3)  # the gate compares two different statistics


def series_exp(f, terms):
    """Coefficients of exp(f) for a power series f with f[0] = 0: g' = f' g."""
    g = [Fraction(1)] + [Fraction(0)] * (terms - 1)
    for n in range(1, terms):
        g[n] = sum(k * f[k] * g[n - k] for k in range(1, n + 1)) / n
    return g


class TestRowIdentities:
    """Rows of the tables against closed forms that do not use the engine.

    H(X) = 1 + max |cl{z}|.  H <= 3 means every closure has at most 2 points,
    so each component is a point, an indiscrete pair, or a closed centre with
    k >= 1 leaves whose closures are {leaf, centre}: labeled counts
    n! [x^n] exp(x + x^2/2 + x(e^x - 1)), class counts [x^n] 1/((1-x)(1-x^2))
    * prod_{m>=2} 1/(1-x^m).  H = n + 1 means some point lies in every
    closure of a point, i.e. in the bottom block of the T0 quotient.

    A T0 space with H = 3 is a poset of height 2 in which each upper point
    covers exactly one point: C(n, u) * (n - u)^u labelings with u >= 1 upper
    points, and one class per partition of n but the discrete one.  A T0
    space with H = n + 1 is a poset with a greatest element: n * A001035(n-1)
    labelings and A000112(n-1) classes.

    H = n means that some closure misses exactly one point x and none misses
    nothing.  Then x is a one-point block in no other closure, a block B of
    s >= 1 points has closure X - {x}, the rest Z is any topology on n - 1 - s
    points and cl{x} - {x} any closed set of Z; two choices of x occur just when
    both have every other point in their closure.  So the row has n * sum_{s=1}^{n-1}
    C(n-1, s) * O(n-1-s) - C(n, 2) * A000798(n-2) labelings, where O(m) counts
    the pairs (topology on m labeled points, open set), and its T0 part (s = 1)
    n(n-1) * O0(n-2) - C(n, 2) * A001035(n-2), where O0(k) counts the pairs
    (poset on k labeled points, down-set).  O0 sums the down-sets of
    ``reference_posets``, and O(m) = sum_k S(m, k) * O0(k).  The class counts
    of the row are not covered: they need the orbits of the closed sets of Z.

    The rows H = 4..n - 1 have no closed form here.  For n <= 7 each is checked
    against ``reference_table``, a second derivation of the tables
    (``TestReferenceTables``), and for n <= 5 against the direct walk too;
    ``TestDuality`` checks the histograms of H and its dual for n <= 8.  At n = 8
    the engine's rows equal pins that ``reference_table`` also gave once by hand.
    At n = 9 the rows are the pins of ``NINE_ALL`` and ``NINE_T0``, which it gave
    too, and only their totals and their rows H <= 3, H = 9 and H = 10 are checked.
    """

    N = range(1, 9)

    def rows(self, n):
        """({H: labeled count}, {H: class count}): the engine's, or at n = 9 the pins."""
        if n == 9:
            return NINE_ALL
        rows = engine_table(n, False).rows
        return {h: c for h, (c, _) in rows.items()}, {h: c for h, (_, c) in rows.items()}

    def t0_rows(self, n):
        """The T0 rows, as ``rows``: the direct walk's for n <= 5, the pins for n = 6..9."""
        if n <= 5:
            hist, _, class_hist = walk_histograms(n, True)
            return hist, class_hist
        return {6: SIX_T0, 7: SEVEN_T0, 8: EIGHT_T0, 9: NINE_T0}[n]

    def test_at_most_three(self):
        terms = 10
        f = [Fraction(0), Fraction(1), Fraction(1, 2)] + [Fraction(0)] * (terms - 3)
        for k in range(2, terms):  # x(e^x - 1)
            f[k] += Fraction(1, math.factorial(k - 1))
        labeled = [g * math.factorial(n) for n, g in enumerate(series_exp(f, terms))]
        classes = [1] + [0] * (terms - 1)
        for m in (1, 2, *range(2, terms)):  # one factor 1/(1 - x^m) each
            for i in range(m, terms):
                classes[i] += classes[i - m]
        assert labeled[1:] == [1, 4, 13, 62, 311, 1822, 11593, 80964, 608833]
        assert classes[1:] == [1, 3, 4, 8, 11, 19, 26, 41, 56]
        for n in (*self.N, 9):
            labeled_rows, class_rows = self.rows(n)
            assert (sum(c for h, c in labeled_rows.items() if h <= 3),
                    sum(c for h, c in class_rows.items() if h <= 3)) == (labeled[n], classes[n])

    def test_top_row(self):
        for n in (*self.N, 9):
            labeled_rows, class_rows = self.rows(n)
            assert (labeled_rows[n + 1], class_rows[n + 1]) == (
                sum(math.comb(n, j) * A000798[n - j] for j in range(1, n + 1)),
                sum(A001930[m] for m in range(n)))

    def test_t0_rows(self):
        partitions = [1] + [0] * 9
        for m in range(1, 10):
            for i in range(m, 10):
                partitions[i] += partitions[i - m]
        assert partitions[8:] == [22, 30]
        for n in range(1, 10):
            labeled_rows, class_rows = self.t0_rows(n)
            assert (sum(labeled_rows.values()), sum(class_rows.values())) == (
                A001035[n], A000112[n])
            assert (labeled_rows[2], class_rows[2]) == (1, 1)
            assert (labeled_rows.get(3, 0), class_rows.get(3, 0)) == (
                sum(math.comb(n, u) * (n - u) ** u for u in range(1, n)), partitions[n] - 1)
            assert (labeled_rows[n + 1], class_rows[n + 1]) == (
                n * A001035[n - 1], A000112[n - 1])

    def test_h_equals_n(self):
        o0 = []  # O0(k): the down-sets of the labeled posets on k points
        for k in range(8):
            total = 0
            for rows, autos in reference_posets(k):
                ups = [0]  # the up-sets; a point joins after every point above it
                for a in sorted(range(k), key=lambda a: rows[a].bit_count()):
                    ups += [u | 1 << a for u in ups if rows[a] & ~u == 1 << a]
                total += math.factorial(k) // len(autos) * len(ups)
            o0.append(total)
        o = [sum(stirling2(m, k) * o0[k] for k in range(m + 1)) for m in range(8)]
        assert o == [1, 2, 12, 130, 2338, 66304, 2871582, 185726958]
        assert o0 == [1, 2, 10, 98, 1678, 46922, 2049550, 135499898]
        for n in range(2, 10):
            if n == 9:
                labeled, t0 = NINE_ALL[0][9], NINE_T0[0][9]
            else:
                labeled, t0 = (engine_table(n, t0_only).rows[n][0] for t0_only in (False, True))
            pairs = math.comb(n, 2)  # spaces counted twice, once for each choice of x
            assert labeled == n * sum(math.comb(n - 1, s) * o[n - 1 - s]
                                      for s in range(1, n)) - pairs * A000798[n - 2]
            assert t0 == n * (n - 1) * o0[n - 2] - pairs * A001035[n - 2]

    def test_nine_point_totals(self):
        labeled_rows, class_rows = NINE_ALL
        assert sum(labeled_rows.values()) == A000798[9] == 63260289423
        assert sum(class_rows.values()) == A001930[9] == 363083
        assert (labeled_rows[10], class_rows[10]) == (6146805142, 41418)


class TestCache:
    def test_cache_roundtrip(self, tmp_path):
        first = count_by_hausdorff(3, cache_dir=tmp_path)
        files = sorted(p.name for p in tmp_path.glob("counts-*.json"))
        assert files == ["counts-n3-all.json", "counts-n3-t0.json"]  # a miss writes both
        again = count_by_hausdorff(3, cache_dir=tmp_path)
        assert first == again

    def test_wrong_filter_recomputes(self, tmp_path):
        """A consistent table of the other filter, which ``from_dict`` accepts."""
        expected = count_by_hausdorff(3, cache_dir=tmp_path, t0_only=True)
        path = tmp_path / "counts-n3-t0.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "t0_only": False}))
        assert count_by_hausdorff(3, cache_dir=tmp_path, t0_only=True) == expected
        assert json.loads(path.read_text()) == expected.to_dict()

    @BAD_COUNTS_CASES
    def test_malformed_document_recomputes(self, tmp_path, n, t0_only, edit):
        """Every row of ``BAD_COUNTS``, the table the reader's test reads too."""
        expected = count_by_hausdorff(n, cache_dir=tmp_path, t0_only=t0_only)
        path = tmp_path / f"counts-n{n}-{'t0' if t0_only else 'all'}.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        assert count_by_hausdorff(n, cache_dir=tmp_path, t0_only=t0_only) == expected
        assert json.loads(path.read_text()) == expected.to_dict()

    def test_unparsable_file_recomputes(self, tmp_path):
        expected = count_by_hausdorff(2, cache_dir=tmp_path)
        path = tmp_path / "counts-n2-all.json"
        path.write_text('{"rows": [')
        assert count_by_hausdorff(2, cache_dir=tmp_path) == expected

    @pytest.mark.parametrize("name", sorted(UNREADABLE_FILES))
    def test_undecodable_file_is_recomputed(self, tmp_path, name):
        code, fresh, _ = run_main(["enumerate", "3", "--cache-dir", str(tmp_path / "fresh")])
        assert code == 0
        path = tmp_path / "cache" / "counts-n3-all.json"
        path.parent.mkdir()
        path.write_bytes(UNREADABLE_FILES[name])
        start = time.perf_counter()
        assert run_main(["enumerate", "3", "--cache-dir", str(path.parent)])[:2] == (0, fresh)
        assert time.perf_counter() - start < 1.0
        assert path.read_text(encoding="utf-8") == fresh

    def test_file_past_the_cap_is_recomputed(self, tmp_path, place_oversized):
        code, fresh, _ = run_main(["enumerate", "3", "--cache-dir", str(tmp_path / "fresh")])
        assert code == 0
        path = tmp_path / "cache" / "counts-n3-all.json"
        path.parent.mkdir()
        place_oversized(path, fresh.encode())  # a right table, past the cap
        start = time.perf_counter()
        assert run_main(["enumerate", "3", "--cache-dir", str(path.parent)])[:2] == (0, fresh)
        assert time.perf_counter() - start < 1.0
        assert not path.is_symlink() and path.read_text(encoding="utf-8") == fresh

    def test_cache_dir_that_cannot_be_looked_up_is_a_miss(self, tmp_path):
        """A name past the file system's limit (ENAMETOOLONG) neither reads nor
        writes a cache, and the table is computed as without one."""
        code, fresh, _ = run_main(["enumerate", "3", "--cache-dir", str(tmp_path / "fresh")])
        assert code == 0
        too_long = tmp_path / ("a" * 300)
        assert count_by_hausdorff(3, cache_dir=too_long) == count_by_hausdorff(3, use_cache=False)
        assert run_main(["enumerate", "3", "--cache-dir", str(too_long)]) == (0, fresh, "")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    def test_fifo_is_recomputed_and_replaced(self, tmp_path):
        """A FIFO with no writer at the cache path is a miss, not a read that waits
        for ever; in a subprocess, so that a regression fails at the timeout."""
        def enumerate_3(cache):
            return run_python(["-m", "hausnum", "enumerate", "3", "--cache-dir", str(cache)],
                              timeout=30)

        fresh = enumerate_3(tmp_path / "fresh")
        path = tmp_path / "cache" / "counts-n3-all.json"
        path.parent.mkdir()
        os.mkfifo(path)
        proc = enumerate_3(path.parent)
        assert fresh.returncode == 0
        assert (proc.returncode, proc.stdout) == (0, fresh.stdout)
        assert path.is_file() and path.read_bytes() == fresh.stdout

    @pytest.mark.parametrize("flag", ["use_cache", "t0_only"])
    @pytest.mark.parametrize("value", [1, 0, None, "yes", 2.5, [1]])
    def test_flag_that_is_not_a_bool_touches_no_cache(self, tmp_path, flag, value):
        with pytest.raises(BadParameter) as raised:
            count_by_hausdorff(2, cache_dir=tmp_path, **{flag: value})
        assert str(raised.value) == f"{flag} must be True or False, got {value!r}"
        assert list(tmp_path.iterdir()) == []

    def test_cache_dir_with_a_nul_is_refused(self):
        with pytest.raises(BadParameter) as raised:
            count_by_hausdorff(3, cache_dir="a\0b")
        assert str(raised.value) == "cache dir must be a path, got 'a\\x00b'"

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """A directory where the cache file goes: the read fails, the temp file is
        written, its rename fails and it is removed; the table is still right.  Each
        miss also writes the T0 file, by a rename that succeeds."""
        fresh = run_main(["enumerate", "3", "--cache-dir", str(tmp_path / "fresh")])
        assert fresh[0] == 0
        cache = tmp_path / "cache"
        (cache / "counts-n3-all.json").mkdir(parents=True)
        renamed, replace = [], os.replace
        monkeypatch.setattr(os, "replace", lambda src, dst: renamed.append(src) or replace(src, dst))
        assert count_by_hausdorff(3, cache_dir=cache) == count_by_hausdorff(3, use_cache=False)
        assert run_main(["enumerate", "3", "--cache-dir", str(cache)]) == fresh
        assert len(renamed) == 4 and not any(map(os.path.exists, renamed))
        assert sorted(p.name for p in cache.iterdir()) == [
            "counts-n3-all.json", "counts-n3-t0.json"]

    @pytest.mark.parametrize("t0_only", [False, True])
    def test_a_miss_serves_the_other_filter(self, tmp_path, monkeypatch, t0_only):
        """One cold call runs the engine once and caches both filters, so that the
        other filter is then a hit, in the library and on the command line."""
        other = not t0_only
        expected = count_by_hausdorff(4, use_cache=False, t0_only=other)
        passes = []
        monkeypatch.setattr("hausnum.enumeration._classes",
                            lambda n: passes.append(n) or _classes(n))
        count_by_hausdorff(4, cache_dir=tmp_path, t0_only=t0_only)
        assert passes == [4]

        def no_pass(n):
            raise AssertionError("a cache hit runs the engine")

        monkeypatch.setattr("hausnum.enumeration._classes", no_pass)
        assert count_by_hausdorff(4, cache_dir=tmp_path, t0_only=other) == expected
        argv = ["enumerate", "4", *["--t0-only"] * other, "--format", "json",
                "--cache-dir", str(tmp_path)]
        code, out, err = run_main(argv)
        cached = tmp_path / f"counts-n4-{'t0' if other else 'all'}.json"
        assert (code, out.encode(), err) == (0, cached.read_bytes(), "")

    def test_write_leaves_no_temp_files(self, tmp_path):
        count_by_hausdorff(2, cache_dir=tmp_path)
        count_by_hausdorff(2, cache_dir=tmp_path, t0_only=True)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "counts-n2-all.json", "counts-n2-t0.json"]

    @pytest.mark.parametrize("argv, name", [
        (["4"], "counts-n4-all.json"),
        (["3", "--t0-only"], "counts-n3-t0.json"),
    ])
    def test_cache_file_is_the_json_output(self, tmp_path, argv, name):
        code, out, _ = run_main(["enumerate", *argv, "--format", "json",
                                 "--cache-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / name).read_bytes() == out.encode()

    def test_cache_file_takes_the_umasks_mode(self, tmp_path):
        """A new file's mode, 0o666 & ~umask, so a shared cache serves every user."""
        for umask in (0o022, 0o077):
            cache = tmp_path / f"umask-{umask:03o}"
            old = os.umask(umask)
            try:
                count_by_hausdorff(4, cache_dir=cache)
            finally:
                os.umask(old)
            assert (cache / "counts-n4-all.json").stat().st_mode & 0o777 == 0o666 & ~umask

    def test_env_var_controls_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOPO_CACHE_DIR", str(tmp_path))
        count_by_hausdorff(2)
        assert list(tmp_path.glob("counts-*.json"))


class TestStirling:
    def test_small_values(self):
        assert stirling2(0, 0) == 1
        assert stirling2(1, 1) == 1
        assert stirling2(2, 1) == 1 and stirling2(2, 2) == 1
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25
        assert stirling2(3, -1) == 0 and stirling2(3, 4) == 0

    def test_against_recurrence_bruteforce(self):
        # count surjections / k! by direct partition enumeration at n = 4
        def partitions(items):
            if not items:
                yield []
                return
            head, *rest = items
            for smaller in partitions(rest):
                for i in range(len(smaller)):
                    yield smaller[:i] + [smaller[i] + [head]] + smaller[i + 1:]
                yield [[head]] + smaller

        for k in range(1, 5):
            count = sum(1 for p in partitions(list(range(4))) if len(p) == k)
            assert stirling2(4, k) == count

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_identity_holds(self, n):
        report = stirling_consistency(n)
        assert report.holds
        assert report.topology_count == LABELED[n]

    def test_walk_cap(self):
        with pytest.raises(TooLarge, match="supported up to 7 points here, got 8"):
            stirling_consistency(8)

    def test_reported_terms_n3(self):
        report = stirling_consistency(3)
        assert report.terms == [(1, 1, 1), (2, 3, 3), (3, 1, 19)]
        assert report.combination_total == 1 * 1 + 3 * 3 + 1 * 19 == 29

    def test_report_dict_n3(self):
        assert stirling_consistency(3).to_dict() == {
            "n": 3, "holds": True, "topology_count": 29, "combination_total": 29,
            "terms": [{"k": 1, "stirling": 1, "t0_count": 1},
                      {"k": 2, "stirling": 3, "t0_count": 3},
                      {"k": 3, "stirling": 1, "t0_count": 19}]}
