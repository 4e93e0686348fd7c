import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest

from hausnum.core import validate_topology
from hausnum.enumeration import (
    CACHE_VERSION,
    CountsTable,
    _canonical,
    _walk,
    canonical_form,
    count_by_hausdorff,
    enumerate_classes,
    enumerate_labeled,
    labeled_and_t0_counts,
    naive_counts,
    naive_enumerate_families,
    stirling2,
    stirling_consistency,
)
from hausnum.errors import TooLarge
from hausnum.separation import hausdorff_number

# OEIS, from n = 0: topologies (A000798), their classes (A001930), T0
# topologies (A001035) and posets (A000112).
A000798 = (1, 1, 4, 29, 355, 6942, 209527, 9535241)
A001930 = (1, 1, 3, 9, 33, 139, 718, 4535)
A001035 = (1, 1, 3, 19, 219, 4231, 130023, 6129859)
A000112 = (1, 1, 2, 5, 16, 63, 318, 2045)
LABELED = dict(enumerate(A000798))
CLASSES = dict(enumerate(A001930))
T0_LABELED = dict(enumerate(A001035))

# n = 6 rows of the direct walk: {H: labeled count}, {H: class count}
SIX_ALL = ({2: 1, 3: 1821, 4: 23700, 5: 62980, 6: 73401, 7: 47624},
           {2: 1, 3: 18, 4: 96, 5: 199, 6: 218, 7: 186})
SIX_T0 = ({2: 1, 3: 1056, 4: 14865, 5: 41660, 6: 47055, 7: 25386},
          {2: 1, 3: 10, 4: 47, 5: 96, 6: 101, 7: 63})


def permute_topology(t, perm):
    return validate_topology(
        t.n, [[perm[p] for p in u] for u in t.opens])


def walk_histograms(n, t0_only):
    """The direct walk's reference for the tables: ``(hist, t0_count, class_hist)``.

    ``hist`` and ``class_hist`` map Hausdorff number to labeled and class
    counts, over T0 topologies only with ``t0_only``; ``t0_count`` counts the
    T0 topologies (pairwise distinct rows) among all of them.
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
        enc = _canonical(rows)[0]
        if enc not in seen:
            seen.add(enc)
            class_hist[h] = class_hist.get(h, 0) + 1
    return hist, t0_count, class_hist


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

    def test_too_large(self):
        with pytest.raises(TooLarge):
            next(enumerate_labeled(8))
        with pytest.raises(TooLarge):
            big = validate_topology(8, [[], list(range(8))])
            canonical_form(big)


class TestCanonicalForm:
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

        from conftest import random_preorder

        for _ in range(10):
            t = topology_from_preorder(random_preorder(6, rng))
            reference = canonical_form(t)
            for _ in range(4):
                perm = list(range(6))
                rng.shuffle(perm)
                assert canonical_form(permute_topology(t, perm)) == reference


def canonical_per_bit(rows):
    """The reference for ``_canonical``: each permuted row built bit by bit."""
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
        enc = bytes(sum(((rows[perm[i]] >> perm[j]) & 1) << j for j in range(n))
                    for i in range(n))
        if best is None or enc < best:
            best, reaching = enc, [perm]
        elif enc == best:
            reaching.append(perm)
    return best, reaching


class TestCanonicalAgainstPerBit:
    """``_canonical`` gives the reference's bytes and reaching permutations."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_preorder(self, n):
        for rows in _walk(n):
            assert _canonical(rows) == canonical_per_bit(rows), rows

    @pytest.mark.parametrize("n, samples", [(6, 150), (7, 60)])
    def test_seeded_samples(self, n, samples):
        import random

        from conftest import random_preorder

        rng = random.Random(1000 + n)
        cases = [tuple(1 << a for a in range(n)), tuple((1 << n) - 1 for _ in range(n))]
        cases += [random_preorder(n, rng).rows for _ in range(samples)]
        for rows in cases:
            assert _canonical(rows) == canonical_per_bit(rows), rows


class TestEnumerateClasses:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_class_counts(self, n):
        assert sum(1 for _ in enumerate_classes(n)) == CLASSES[n]

    def test_forms_and_representatives_pinned(self):
        # each representative is the first member of its class the walk meets
        digest = hashlib.sha256()
        for n in range(1, 6):
            for form, rep in enumerate_classes(n):
                masks = ",".join(map(str, rep.open_masks))
                digest.update(f"{n} {form.encoding.hex()} {masks}\n".encode())
        assert digest.hexdigest() == (
            "f15813413328480bc82b79af10400a5241f67a4463890eaea8bf32e054ef3a01")

    def test_two_point_classes(self):
        reps = [t for _, t in enumerate_classes(2)]
        sizes = sorted(len(t.opens) for t in reps)
        assert sizes == [2, 3, 4]  # indiscrete, one Sierpinski rep, discrete

    def test_orbit_sizes_sum_to_labeled_total(self):
        import math

        for n in (2, 3, 4):
            orbit_total = 0
            for _, rep in enumerate_classes(n):
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

    @pytest.mark.parametrize("t0_only, expected", [(False, SIX_ALL), (True, SIX_T0)])
    def test_six_points_pinned(self, t0_only, expected):
        table = count_by_hausdorff(6, use_cache=False, t0_only=t0_only)
        assert {h: c for h, (c, _) in table.rows.items()} == expected[0]
        assert {h: c for h, (_, c) in table.rows.items()} == expected[1]
        assert table.t0_labeled_count == 130023

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

    def test_too_large(self):
        with pytest.raises(TooLarge):
            count_by_hausdorff(7, use_cache=False)


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
    """

    N = range(1, 7)

    def tables(self, n):
        return (count_by_hausdorff(n, use_cache=False),
                count_by_hausdorff(n, use_cache=False, t0_only=True))

    def test_at_most_three(self):
        terms = max(self.N) + 1
        f = [Fraction(0), Fraction(1), Fraction(1, 2)] + [Fraction(0)] * (terms - 3)
        for k in range(2, terms):  # x(e^x - 1)
            f[k] += Fraction(1, math.factorial(k - 1))
        labeled = [g * math.factorial(n) for n, g in enumerate(series_exp(f, terms))]
        classes = [1] + [0] * (terms - 1)
        for m in (1, 2, *range(2, terms)):  # one factor 1/(1 - x^m) each
            for i in range(m, terms):
                classes[i] += classes[i - m]
        assert labeled[1:] == [1, 4, 13, 62, 311, 1822]
        assert classes[1:] == [1, 3, 4, 8, 11, 19]
        for n in self.N:
            rows = self.tables(n)[0].rows
            assert (sum(rows[h][0] for h in rows if h <= 3),
                    sum(rows[h][1] for h in rows if h <= 3)) == (labeled[n], classes[n])

    def test_top_row(self):
        for n in self.N:
            table, t0_table = self.tables(n)
            assert table.rows[n + 1] == (
                sum(math.comb(n, j) * A000798[n - j] for j in range(1, n + 1)),
                sum(A001930[m] for m in range(n)))
            assert t0_table.rows[n + 1] == (n * A001035[n - 1], A000112[n - 1])


class TestCache:
    def test_cache_roundtrip(self, tmp_path):
        first = count_by_hausdorff(3, cache_dir=tmp_path)
        files = list(tmp_path.glob("counts-*.json"))
        assert len(files) == 1
        again = count_by_hausdorff(3, cache_dir=tmp_path)
        assert first == again

    def test_version_mismatch_recomputes(self, tmp_path):
        count_by_hausdorff(2, cache_dir=tmp_path)
        path = next(tmp_path.glob("counts-*.json"))
        doc = json.loads(path.read_text())
        doc["cache_version"] = "stale"
        doc["labeled_total"] = 999
        path.write_text(json.dumps(doc))
        table = count_by_hausdorff(2, cache_dir=tmp_path)
        assert table.labeled_total == 4
        refreshed = json.loads(path.read_text())
        assert refreshed["cache_version"] == CACHE_VERSION

    def corrupt(self, tmp_path, n, edit, t0_only=False):
        """Cache a table, rewrite its file with ``edit``, then load it again."""
        expected = count_by_hausdorff(n, cache_dir=tmp_path, t0_only=t0_only)
        path = next(tmp_path.glob("counts-*.json"))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        assert count_by_hausdorff(n, cache_dir=tmp_path, t0_only=t0_only) == expected
        assert json.loads(path.read_text()) == expected.to_dict()

    def test_missing_rows_recomputes(self, tmp_path):
        self.corrupt(tmp_path, 2, lambda doc: doc.pop("rows"))

    def test_rows_not_matching_totals_recomputes(self, tmp_path):
        self.corrupt(tmp_path, 2, lambda doc: doc["rows"][0].update(labeled_count=999))

    def test_wrong_filter_recomputes(self, tmp_path):
        self.corrupt(tmp_path, 3, lambda doc: doc.update(t0_only=False), t0_only=True)

    def test_non_integer_count_recomputes(self, tmp_path):
        self.corrupt(tmp_path, 2, lambda doc: doc["rows"][0].update(class_count="1"))

    def test_unparsable_file_recomputes(self, tmp_path):
        expected = count_by_hausdorff(2, cache_dir=tmp_path)
        path = next(tmp_path.glob("counts-*.json"))
        path.write_text('{"rows": [')
        assert count_by_hausdorff(2, cache_dir=tmp_path) == expected

    def test_write_leaves_no_temp_files(self, tmp_path):
        count_by_hausdorff(2, cache_dir=tmp_path)
        count_by_hausdorff(2, cache_dir=tmp_path, t0_only=True)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "counts-n2-all.json", "counts-n2-t0.json"]

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identity_holds(self, n):
        report = stirling_consistency(n)
        assert report.holds
        assert report.topology_count == LABELED[n]

    def test_reported_terms_n3(self):
        report = stirling_consistency(3)
        assert report.terms == [(1, 1, 1), (2, 3, 3), (3, 1, 19)]
        assert report.combination_total == 1 * 1 + 3 * 3 + 1 * 19 == 29
