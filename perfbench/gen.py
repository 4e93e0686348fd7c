"""Seeded inputs for the benchmark and the independent expectations they are checked against.

Nothing here imports hausnum: every expected value is recomputed from the
generated open sets (or from published integer sequences), so a wrong answer
from the program cannot also make its own check pass.
"""

from __future__ import annotations

from fractions import Fraction

# Topologies on n = 1..6 points (OEIS numbering).
LABELED = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942, 6: 209527}    # A000798
CLASSES = {1: 1, 2: 3, 3: 9, 4: 33, 5: 139, 6: 718}          # A001930
T0_LABELED = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231, 6: 130023}  # A001035
T0_CLASSES = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318}         # A000112

FORMAT_TAG = "finite-topology/v1"


def points_of(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def transitive_closure(rows: list[int]) -> list[int]:
    rows = list(rows)
    changed = True
    while changed:
        changed = False
        for a, row in enumerate(rows):
            grown = row
            for b in points_of(row):
                grown |= rows[b]
            if grown != row:
                rows[a] = grown
                changed = True
    return rows


def random_rows(rng, n: int, density: float) -> list[int]:
    """Minimal neighbourhoods of a random preorder: rows[a] = {b : a <= b}."""
    rows = [1 << a for a in range(n)]
    for a in range(n):
        for b in range(n):
            if a != b and rng.random() < density:
                rows[a] |= 1 << b
    return transitive_closure(rows)


def opens_of(rows: list[int]) -> list[int]:
    """Every union of minimal neighbourhoods, i.e. every open set."""
    opens = {0}
    for row in rows:
        opens |= {u | row for u in opens}
    return sorted(opens)


def paired_rows(rng, n: int) -> list[int]:
    """The partition topology whose blocks are one random pair and n - 2 singletons.

    It has 2**(n - 1) opens and is regular and normal, so the axiom checks,
    which stop at the first failure, always run to the end: the cost is the
    same for every seed.
    """
    a, b = rng.sample(range(n), 2)
    rows = [1 << p for p in range(n)]
    rows[a] = rows[b] = 1 << a | 1 << b
    return rows


def opens_document(n: int, opens: list[int], rng) -> dict:
    family = [points_of(u) for u in opens]
    rng.shuffle(family)
    return {"format": FORMAT_TAG, "n": n, "opens": family}


def subbasis_document(n: int, rows: list[int], rng) -> dict:
    """The minimal neighbourhoods, which generate the topology."""
    sets = [points_of(u) for u in sorted(set(rows))]
    rng.shuffle(sets)
    return {"format": FORMAT_TAG, "n": n, "subbasis": sets}


def minimal_rows(n: int, opens: list[int]) -> list[int]:
    full = (1 << n) - 1
    rows = [full] * n
    for u in opens:
        for a in points_of(u):
            rows[a] &= u
    return rows


def expected_analysis(n: int, opens: list[int]) -> dict:
    """The analysis report's fields, each from its own closed form.

    H = 1 + max over x of |{a : x in N(a)}|.  A finite space is regular iff
    its specialization preorder is symmetric, and normal iff points with
    disjoint closures have disjoint minimal neighbourhoods.
    """
    rows = minimal_rows(n, opens)
    closure = [sum(1 << a for a in range(n) if rows[a] >> x & 1) for x in range(n)]
    open_set = set(opens)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return {
        "n": n,
        "hausdorff_number": 1 + max(c.bit_count() for c in closure),
        "t0": len(set(rows)) == n,
        "t1": all(rows[a] == 1 << a for a in range(n)),
        "hausdorff": all(rows[a] & rows[b] == 0 for a, b in pairs),
        "regular": all(rows[b] >> a & 1 for a in range(n) for b in points_of(rows[a])),
        "normal": all(rows[a] & rows[b] == 0 for a, b in pairs
                      if closure[a] & closure[b] == 0),
        "discrete": all(1 << a in open_set for a in range(n)),
        "compact": True,
    }


def check_analysis(report: dict, expected: dict) -> str | None:
    """None when ``report`` matches, else a one-line reason."""
    for key, value in expected.items():
        if report.get(key) != value:
            return f"{key}: got {report.get(key)!r}, expected {value!r}"
    largest = report.get("largest_nonseparable")
    if not isinstance(largest, list) or len(largest) != expected["hausdorff_number"] - 1:
        return f"largest_nonseparable {largest!r} has the wrong size"
    return None


def hausdorff_number_of(doc: dict) -> int:
    n = doc["n"]
    opens = [sum(1 << p for p in u) for u in doc["opens"]]
    return expected_analysis(n, opens)["hausdorff_number"]


def check_table(doc: dict, n: int, t0_only: bool) -> str | None:
    """Totals of an ``enumerate`` JSON table against the known sequences."""
    labeled = T0_LABELED[n] if t0_only else LABELED[n]
    classes = T0_CLASSES[n] if t0_only else CLASSES[n]
    got = (doc.get("n"), doc.get("t0_only"), doc.get("labeled_total"),
           doc.get("class_total"), doc.get("t0_labeled_count"))
    want = (n, t0_only, labeled, classes, T0_LABELED[n])
    if got != want:
        return f"(n, t0_only, labeled, classes, t0) = {got}, expected {want}"
    return check_rows([(r["labeled_count"], r["class_count"]) for r in doc["rows"]],
                      labeled, classes)


def check_csv(text: str, n: int) -> str | None:
    lines = text.splitlines()
    if not lines or lines[0] != "n,hausdorff_number,labeled_count,class_count":
        return "bad csv header"
    rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
    if any(row[0] != n for row in rows):
        return "csv rows for the wrong n"
    return check_rows([(row[2], row[3]) for row in rows], LABELED[n], CLASSES[n])


def check_rows(rows: list[tuple[int, int]], labeled: int, classes: int) -> str | None:
    sums = (sum(r[0] for r in rows), sum(r[1] for r in rows))
    if sums != (labeled, classes):
        return f"row sums {sums}, expected {(labeled, classes)}"
    return None


# Symbolic doubled-interval spaces: a set of two or more points is separable
# exactly when it is not inside the hub {base 1/2} U {stacked points}.

def in_hub(point: str) -> bool:
    return point.startswith("v:") or Fraction(point[2:]) == Fraction(1, 2)


def random_symbolic_points(rng, verticals: int, count: int, hub_only: bool) -> list[str]:
    """``count`` distinct points; with ``hub_only`` False one is a base point off 1/2."""
    hub = ["b:1/2"] + [f"v:{m}" for m in range(1, verticals + 1)]
    if hub_only:
        return rng.sample(hub, min(count, len(hub)))
    offs = rng.sample([k for k in range(13) if k != 6], count - 1)
    points = rng.sample(hub, 1) + [f"b:{Fraction(k, 12)}" for k in offs]
    rng.shuffle(points)
    return points


def expected_t1(t1_variant: bool, p: str, q: str) -> bool:
    """Only the unpunctured variant fails, for a stacked point against base 1/2."""
    if t1_variant:
        return True
    kinds = {p[0], q[0]}
    base = p if p[0] == "b" else q
    return not (kinds == {"v", "b"} and Fraction(base[2:]) == Fraction(1, 2))
