"""The package namespace: every export resolves lazily to its defining module's object."""

import ast
import importlib
import inspect
import math
from collections.abc import Iterator
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from pathlib import Path
from types import FunctionType

import pytest

import hausnum
from hausnum.errors import BadParameter, ParseError, PointOutOfRange, SpaceMismatch, TooLarge
from hausnum.limits import shown

from conftest import run_python

SRC = Path(hausnum.__file__).resolve().parent


def test_table_lists_each_export_once():
    names = [name for names in hausnum._EXPORTS.values() for name in names]
    assert len(names) == len(set(names))
    assert set(names) == set(hausnum.__all__) - {"BACKEND_NAME"}


def test_exports_are_the_defining_modules_objects():
    for module, names in hausnum._EXPORTS.items():
        defining = importlib.import_module(f"hausnum.{module}")
        for name in names:
            value = getattr(hausnum, name)
            assert value is getattr(defining, name), name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == defining.__name__, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from hausnum import *", namespace)
    for name in hausnum.__all__:
        assert namespace[name] is getattr(hausnum, name), name


def test_dir_lists_every_export():
    assert set(hausnum.__all__) <= set(dir(hausnum))


def test_submodules_resolve_after_plain_import():
    # A fresh interpreter, so no test has imported the submodules already.
    names = sorted(hausnum._SUBMODULES)
    proc = run_python(["-c", "import hausnum\n"
                       f"print(*(getattr(hausnum, name).__name__ for name in {names!r}))"],
                      text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"hausnum.{name}" for name in names]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        hausnum.no_such_name


def test_readme_states_the_caps_of_limits():
    """The size caps the README gives in prose are those of ``limits.py``."""
    from hausnum.limits import (
        COORDINATE_MAX_DIGITS,
        ENUM_MAX_POINTS,
        MAX_DOCUMENT_BYTES,
        MAX_OPENS,
        ORACLE_MAX_POINTS,
        REJECT_MAX_OPENS,
        TABLE_MAX_POINTS,
    )

    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    for phrase in (f"all topologies on up to {ENUM_MAX_POINTS} labeled points",
                   f"count tables by Hausdorff number up to {TABLE_MAX_POINTS} points",
                   f"against the exhaustive definition (n <= {ORACLE_MAX_POINTS})",
                   f"up to {ORACLE_MAX_POINTS} points, the oracle's cross-check",
                   f"independent ground truth (n <= {ORACLE_MAX_POINTS})",
                   f"`MAX_OPENS` = {MAX_OPENS:,} sets",
                   f"rejected family of up to `REJECT_MAX_OPENS` = {REJECT_MAX_OPENS:,} sets",
                   f"homeomorphism classes on up to {TABLE_MAX_POINTS} points",
                   f"canonical forms of topologies on up to {TABLE_MAX_POINTS} points",
                   f"`COORDINATE_MAX_DIGITS` = {COORDINATE_MAX_DIGITS:,} digits",
                   f"`MAX_DOCUMENT_BYTES` = {MAX_DOCUMENT_BYTES:,} bytes"):
        assert phrase in text


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, in its code or in its string
    annotations (``"FiniteTopology | None"``)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used.update(n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return [name for name in imported if name not in used]


def test_unused_import_check_sees_a_leftover_name():
    source = ("from __future__ import annotations\n"
              "from typing import TYPE_CHECKING\n"
              "from ._records import FrozenRecord, Record\n"
              "if TYPE_CHECKING:\n"
              "    from .core import PointSet\n"
              "class A(FrozenRecord):\n"
              "    def f(self, s: \"PointSet | None\") -> None: ...\n")
    assert unused_imports(source) == ["Record"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_names(sources: dict[str, str]) -> list[str]:
    """Leftovers in ``sources`` (module name -> text): the module-level
    private names that no statement reads apart from the one defining them,
    then the caps of ``limits`` that no other module imports."""
    defined, read, caps, imported = [], [], [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            if module == "limits":
                caps += names
            defined += [(name, stmt) for name in names
                        if name.startswith("_") and not name.endswith("__")]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    read.append((node.id, stmt))
                elif isinstance(node, ast.Attribute):
                    read.append((node.attr, stmt))
                elif isinstance(node, ast.ImportFrom):
                    read += [(alias.name, stmt) for alias in node.names]
                    if node.module == "limits" and module != "limits":
                        imported.update(alias.name for alias in node.names)
    dead = [name for name, stmt in defined
            if not any(other == name and where is not stmt for other, where in read)]
    return dead + [cap for cap in caps if cap not in imported]


def test_dead_name_check_sees_a_leftover_name():
    sources = {"limits": "CAP = 1\nOLD_CAP = 2\n",
               "engine": ("from .limits import CAP\n"
                          "_TABLE = {}\n"
                          "def _classes(n):\n    return _TABLE, CAP\n"
                          "def _quotient_counts(n):\n    return _quotient_counts(n - 1)\n"
                          "def count(n):\n    return _classes(n)\n")}
    assert dead_names(sources) == ["_quotient_counts", "OLD_CAP"]


def test_every_private_name_and_cap_is_used():
    """No module-level private name or cap of ``limits.py`` is left unread."""
    assert dead_names({path.stem: path.read_text(encoding="utf-8")
                       for path in sorted(SRC.glob("*.py"))}) == []


def imports_json(source: str) -> bool:
    """Whether a module imports the standard ``json`` package anywhere."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m == "json" or m.startswith("json.") for m in modules):
            return True
    return False


def test_json_import_check_sees_an_import():
    assert imports_json("import contextlib\nimport json\n")
    assert imports_json("def f():\n    from json import loads\n")
    assert imports_json("import json.decoder as d\n")
    assert not imports_json("from .jsonio import read_json\nfrom . import json\n"
                            "import jsonschema\n")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_only_jsonio_imports_json(path):
    """Every JSON file the package reads goes through ``jsonio.read_json``."""
    assert imports_json(path.read_text(encoding="utf-8")) == (path.name == "jsonio.py")


def functions_around(source: str, matches) -> list[str]:
    """The function (``<module>`` at top level) around each node of a module
    that ``matches`` accepts, in source order."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            where = getattr(node, "name", "<lambda>")
        if matches(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def type_names(node) -> set[str]:
    """The names in ``node``, a name or a tuple of them (a tuple of types)."""
    return {kind.id for kind in (node.elts if isinstance(node, ast.Tuple) else [node])
            if isinstance(kind, ast.Name)}


def bool_tests(source: str) -> list[str]:
    """The function (``<module>`` at top level) around each ``isinstance(…, bool)``
    call of a module, ``bool`` alone or in a tuple of types."""
    return functions_around(source, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and "bool" in type_names(node.args[1])))


def exact_type_tests(source: str) -> list[str]:
    """The function (``<module>`` at top level) around each comparison of
    ``type(…)`` with ``int``, ``list`` or ``tuple``, alone or in a tuple: a fast
    path of the integer or the collection rule.  ``type(…) is bool`` is not one."""
    return functions_around(source, lambda node: (
        isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
        and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
        and any(type_names(kinds) & {"int", "list", "tuple"} for kinds in node.comparators)))


def test_bool_test_check_sees_an_inlined_copy():
    source = ("def is_int(v):\n    return isinstance(v, int) and not isinstance(v, bool)\n"
              "class A:\n    def __init__(self, n):\n"
              "        if isinstance(n, (float, bool)):\n            raise TypeError\n"
              "CHECK = lambda v: isinstance(v, bool)\n"
              "FLAG = isinstance(1, bool)\n")
    assert bool_tests(source) == ["is_int", "__init__", "<lambda>", "<module>"]


def test_only_limits_is_int_tells_bools_from_ints():
    """``limits.is_int`` is the package's one integer rule; no module inlines a copy."""
    assert [(path.stem, where) for path in sorted(SRC.glob("*.py"))
            for where in bool_tests(path.read_text(encoding="utf-8"))] == [("limits", "is_int")]


def test_exact_type_check_sees_an_inlined_copy():
    source = ("def is_int(v):\n    return type(v) is int or isinstance(v, int)\n"
              "class A:\n    def __init__(self, rows):\n"
              "        rows = rows if type(rows) in (list, tuple) else list(rows)\n"
              "        if type(rows[0]) is not int or type(self) is bool:\n"
              "            raise TypeError\n"
              "FLAG = lambda v: type(v) is bool\n"
              "PLAIN = type(1) == int\n")
    assert exact_type_tests(source) == ["is_int", "__init__", "__init__", "<module>"]


def test_no_module_inlines_a_fast_path_of_a_limits_rule():
    """Each rule of ``limits`` is written once, fast path included: only
    ``limits.is_int`` compares ``type(…)`` with ``int``, ``list`` or ``tuple``."""
    assert [(path.stem, where) for path in sorted(SRC.glob("*.py"))
            for where in exact_type_tests(path.read_text(encoding="utf-8"))] == [
        ("limits", "is_int")]


THREE = hausnum.three_point_example()  # opens {}, {0}, {1,2}, X: 0 and 1 separate
PREORDER = hausnum.specialization_preorder(THREE)
SPACE = hausnum.BugEyedSpace(2)
BALL = hausnum.neighborhood_of(SPACE, hausnum.Base(0), 1)

# Wrong-kind values of each argument kind.  "optional" kinds have ``None`` as
# their default, so ``None`` is valid there.  A package object's wrong kinds are
# three values of no package kind and one package object of another kind.
COLLECTION = (5, None, 2.5)
NO_OBJECT = (5, None, "x")
WRONG_KIND = {
    "package object: topology": (*NO_OBJECT, hausnum.PointSet(3, 1)),
    "package object: preorder": (*NO_OBJECT, THREE),
    "package object: point set": (*NO_OBJECT, THREE),
    "package object: witness": (*NO_OBJECT, THREE),
    "package object: space": (*NO_OBJECT, hausnum.Base(0)),
    "package object: point": (*NO_OBJECT, [1], SPACE),  # [1] cannot be hashed
    "package object: neighborhood": (*NO_OBJECT, SPACE),
    # a neighbourhood's owner of the other point kind; the "package object: point"
    # rows give its constructor the values of no point kind
    "package object: base point": (hausnum.Vertical(1),),
    "package object: vertical point": (hausnum.Base(0),),
    # a PointSet over 4 points, given where the space has 3
    "another space's point set": (hausnum.PointSet(4, 1),),
    "collection": COLLECTION,
    "collection member": COLLECTION,
    # a witness's assignments; "collection" under its own name, so that the case
    # ids of ``verify_witness`` stay apart
    "pairs": COLLECTION,
    # read by ``core._as_mask``: a collection of points, or a PointSet of the same n
    "point set": (*COLLECTION, hausnum.PointSet(4, 1)),
    "number": (None, [1], math.nan, math.inf, -math.inf, Decimal("NaN"), "abc", "1/0"),
    "text": (None, 5, b"b:1"),
    "optional text": (5, b"b:1"),
    "path": (5, None, "a\0b"),
    "optional path": (5, "a\0b"),
    "integer": (True, 2.5, "3", None),
    "flag": (1, 0, None, "yes"),
    "document": (5, None, "{}", [1]),
}
BASES = [hausnum.Base(0), hausnum.Base(1)]


def witness(*pairs):
    """``verify_witness`` of ``pairs`` for the points 0 and 1 of ``THREE``."""
    return hausnum.verify_witness(THREE, [0, 1], hausnum.SeparationWitness(pairs))


# (entry, parameter, argument kind, error, call with the wrong-kind value).  The
# entry is a name of ``hausnum.__all__`` or a submodule's name, then its attributes
# after dots; the parameter is the one the value is passed in, itself or as a member.
SWEEP = [
    ("hausdorff_number", "topology", "package object: topology", SpaceMismatch,
     lambda v: hausnum.hausdorff_number(v)),
    ("hausdorff_number_oracle", "topology", "package object: topology", SpaceMismatch,
     lambda v: hausnum.hausdorff_number_oracle(v)),
    ("is_n_hausdorff", "topology", "package object: topology", SpaceMismatch,
     lambda v: hausnum.is_n_hausdorff(v, 3)),
    ("axioms_report", "topology", "package object: topology", SpaceMismatch,
     lambda v: hausnum.axioms_report(v)),
    ("analysis_report", "topology", "package object: topology", SpaceMismatch,
     lambda v: hausnum.analysis_report(v)),
    ("is_separable", "topology", "package object: topology", SpaceMismatch,
     lambda v: hausnum.is_separable(v, [0, 1])),
    ("verify_witness", "topology", "package object: topology", SpaceMismatch,
     lambda v: hausnum.verify_witness(v, [0, 1], hausnum.is_separable(THREE, [0, 1]).witness)),
    ("verify_witness", "witness", "package object: witness", SpaceMismatch,
     lambda v: hausnum.verify_witness(THREE, [0, 1], v)),
    # the witness's assignments: (point, point set) pairs of the topology's space
    ("verify_witness", "witness", "pairs", PointOutOfRange,
     lambda v: hausnum.verify_witness(THREE, [0, 1], hausnum.SeparationWitness(v))),
    ("verify_witness", "witness", "collection member", PointOutOfRange, lambda v: witness(v)),
    ("verify_witness", "witness", "integer", PointOutOfRange,
     lambda v: witness((v, hausnum.PointSet(3, 1)), (1, hausnum.PointSet(3, 6)))),
    ("verify_witness", "witness", "point set", PointOutOfRange,
     lambda v: witness((0, v), (1, hausnum.PointSet(3, 6)))),
    ("canonical_form", "topology", "package object: topology", SpaceMismatch,
     lambda v: hausnum.canonical_form(v)),
    ("topology_to_dict", "topology", "package object: topology", SpaceMismatch,
     lambda v: hausnum.topology_to_dict(v)),
    ("topology_to_json", "topology", "package object: topology", SpaceMismatch,
     lambda v: hausnum.topology_to_json(v)),
    ("specialization_preorder", "topology", "package object: topology", SpaceMismatch,
     lambda v: hausnum.specialization_preorder(v)),
    ("topology_from_preorder", "preorder", "package object: preorder", SpaceMismatch,
     lambda v: hausnum.topology_from_preorder(v)),
    ("subspace", "topology", "package object: topology", SpaceMismatch,
     lambda v: hausnum.subspace(v, [0])),
    ("minimal_neighborhood", "topology", "package object: topology", SpaceMismatch,
     lambda v: hausnum.minimal_neighborhood(v, 0)),
    ("PointSet.issubset", "other", "package object: point set", SpaceMismatch,
     lambda v: hausnum.PointSet(3, 1).issubset(v)),
    ("membership", "nbhd", "package object: neighborhood", SpaceMismatch,
     lambda v: hausnum.membership(v, hausnum.Base(0))),
    ("intersection_nonempty", "nbhds", "package object: neighborhood", SpaceMismatch,
     lambda v: hausnum.intersection_nonempty([v])),
    ("intersection_nonempty", "nbhds", "package object: neighborhood", SpaceMismatch,
     lambda v: hausnum.intersection_nonempty([BALL, v])),
    ("hausdorff_number_symbolic", "space", "package object: space", SpaceMismatch,
     lambda v: hausnum.hausdorff_number_symbolic(v)),
    ("largest_nonseparable_set", "space", "package object: space", SpaceMismatch,
     lambda v: hausnum.largest_nonseparable_set(v)),
    ("restrict", "space", "package object: space", SpaceMismatch,
     lambda v: hausnum.restrict(v, 2)),
    ("separable", "space", "package object: space", SpaceMismatch,
     lambda v: hausnum.separable(v, BASES)),
    # a member twice: its kind is read before the duplicate test hashes it
    ("separable", "points", "package object: point", SpaceMismatch,
     lambda v: hausnum.separable(SPACE, [v, v])),
    ("grid_witness_search", "space", "package object: space", SpaceMismatch,
     lambda v: hausnum.grid_witness_search(v, BASES)),
    ("t1_status", "space", "package object: space", SpaceMismatch,
     lambda v: hausnum.t1_status(v, *BASES)),
    ("neighborhood_of", "space", "package object: space", SpaceMismatch,
     lambda v: hausnum.neighborhood_of(v, hausnum.Base(0), 1)),
    ("symbolic.BallNeighborhood", "owner", "package object: base point", SpaceMismatch,
     lambda v: hausnum.symbolic.BallNeighborhood(SPACE, v, 1)),
    ("symbolic.VerticalNeighborhood", "owner", "package object: vertical point", SpaceMismatch,
     lambda v: hausnum.symbolic.VerticalNeighborhood(SPACE, v, 1)),
    ("FiniteTopology", "n", "integer", PointOutOfRange,
     lambda v: hausnum.FiniteTopology(v, ())),
    ("FiniteTopology", "opens", "collection", PointOutOfRange,
     lambda v: hausnum.FiniteTopology(3, v)),
    ("FiniteTopology", "opens", "package object: point set", SpaceMismatch,
     lambda v: hausnum.FiniteTopology(3, [v])),
    ("FiniteTopology", "opens", "another space's point set", PointOutOfRange,
     lambda v: hausnum.FiniteTopology(3, [v])),
    ("Preorder", "rows", "collection", PointOutOfRange, lambda v: hausnum.Preorder(2, v)),
    ("Preorder.from_matrix", "matrix", "collection", PointOutOfRange,
     lambda v: hausnum.Preorder.from_matrix(v)),
    ("Preorder.from_matrix", "matrix", "collection member", PointOutOfRange,
     lambda v: hausnum.Preorder.from_matrix([v])),
    ("PointSet.from_points", "points", "collection", PointOutOfRange,
     lambda v: hausnum.PointSet.from_points(3, v)),
    ("validate_topology", "family", "collection", PointOutOfRange,
     lambda v: hausnum.validate_topology(3, v)),
    ("validate_topology", "family", "collection member", PointOutOfRange,
     lambda v: hausnum.validate_topology(3, [[], v])),
    ("generate_from_subbasis", "subbasis", "collection", PointOutOfRange,
     lambda v: hausnum.generate_from_subbasis(3, v)),
    ("generate_from_subbasis", "subbasis", "collection member", PointOutOfRange,
     lambda v: hausnum.generate_from_subbasis(3, [v])),
    ("subspace", "points", "collection", PointOutOfRange, lambda v: hausnum.subspace(THREE, v)),
    ("FiniteTopology.is_open", "s", "collection", PointOutOfRange, lambda v: THREE.is_open(v)),
    ("is_separable", "points", "collection", PointOutOfRange,
     lambda v: hausnum.is_separable(THREE, v)),
    ("verify_witness", "points", "collection", PointOutOfRange,
     lambda v: hausnum.verify_witness(THREE, v, hausnum.is_separable(THREE, [0, 1]).witness)),
    ("separable", "points", "collection", BadParameter, lambda v: hausnum.separable(SPACE, v)),
    ("intersection_nonempty", "nbhds", "collection", BadParameter,
     lambda v: hausnum.intersection_nonempty(v)),
    ("grid_witness_search", "points", "collection", BadParameter,
     lambda v: hausnum.grid_witness_search(SPACE, v)),
    ("Base", "q", "number", BadParameter, lambda v: hausnum.Base(v)),
    ("BasePoint", "coordinate", "number", BadParameter, lambda v: hausnum.BasePoint(v)),
    ("neighborhood_of", "param", "number", BadParameter,
     lambda v: hausnum.neighborhood_of(SPACE, hausnum.Base(0), v)),
    ("parse_point", "text", "text", ParseError, lambda v: hausnum.parse_point(v)),
    ("parse_points", "text", "text", ParseError, lambda v: hausnum.parse_points(v)),
    ("build_example", "name", "text", ParseError, lambda v: hausnum.build_example(v)),
    ("export_example", "name", "text", ParseError, lambda v: hausnum.export_example(v)),
    ("topology_to_dict", "name", "optional text", ParseError,
     lambda v: hausnum.topology_to_dict(THREE, name=v)),
    ("topology_to_json", "name", "optional text", ParseError,
     lambda v: hausnum.topology_to_json(THREE, name=v)),
    ("load_topology", "source", "path", ParseError, lambda v: hausnum.load_topology(v)),
    ("count_by_hausdorff", "cache_dir", "optional path", BadParameter,
     lambda v: hausnum.count_by_hausdorff(3, cache_dir=v)),
    ("count_by_hausdorff", "use_cache", "flag", BadParameter,
     lambda v: hausnum.count_by_hausdorff(2, use_cache=v)),
    ("count_by_hausdorff", "t0_only", "flag", BadParameter,
     lambda v: hausnum.count_by_hausdorff(2, use_cache=False, t0_only=v)),
    ("CountsTable.from_dict", "doc", "document", ParseError,
     lambda v: hausnum.CountsTable.from_dict(v)),
    ("Cardinal", "kind", "text", BadParameter, lambda v: hausnum.Cardinal(v)),
    ("Cardinal", "value", "integer", BadParameter, lambda v: hausnum.Cardinal("finite", v)),
    ("Finite", "k", "integer", BadParameter, lambda v: hausnum.Finite(v)),
    ("BugEyedSpace.has_vertical", "index", "integer", BadParameter,
     lambda v: SPACE.has_vertical(v)),
    ("PointSet.full", "n", "integer", PointOutOfRange, lambda v: hausnum.PointSet.full(v)),
    ("stirling2", "n", "integer", BadParameter, lambda v: hausnum.stirling2(v, 1)),
    ("stirling2", "k", "integer", BadParameter, lambda v: hausnum.stirling2(3, v)),
    ("membership", "p", "package object: point", SpaceMismatch,
     lambda v: hausnum.membership(BALL, v)),
    ("t1_status", "p", "package object: point", SpaceMismatch,
     lambda v: hausnum.t1_status(SPACE, v, hausnum.Base(0))),
    ("t1_status", "q", "package object: point", SpaceMismatch,
     lambda v: hausnum.t1_status(SPACE, hausnum.Base(0), v)),
    ("neighborhood_of", "p", "package object: point", SpaceMismatch,
     lambda v: hausnum.neighborhood_of(SPACE, v, 1)),
    ("symbolic.BallNeighborhood", "owner", "package object: point", SpaceMismatch,
     lambda v: hausnum.symbolic.BallNeighborhood(SPACE, v, 1)),
    ("symbolic.VerticalNeighborhood", "owner", "package object: point", SpaceMismatch,
     lambda v: hausnum.symbolic.VerticalNeighborhood(SPACE, v, 1)),
    ("PointSet", "n", "integer", PointOutOfRange, lambda v: hausnum.PointSet(v, 0)),
    ("PointSet", "mask", "integer", PointOutOfRange, lambda v: hausnum.PointSet(3, v)),
    ("PointSet.empty", "n", "integer", PointOutOfRange, lambda v: hausnum.PointSet.empty(v)),
    ("PointSet.from_points", "n", "integer", PointOutOfRange,
     lambda v: hausnum.PointSet.from_points(v, [])),
    ("PointSet.singleton", "n", "integer", PointOutOfRange,
     lambda v: hausnum.PointSet.singleton(v, 0)),
    ("PointSet.singleton", "point", "integer", PointOutOfRange,
     lambda v: hausnum.PointSet.singleton(3, v)),
    ("Preorder", "n", "integer", PointOutOfRange, lambda v: hausnum.Preorder(v, [1])),
    ("Preorder.leq", "a", "integer", PointOutOfRange, lambda v: PREORDER.leq(v, 0)),
    ("Preorder.leq", "b", "integer", PointOutOfRange, lambda v: PREORDER.leq(0, v)),
    ("validate_topology", "n", "integer", PointOutOfRange,
     lambda v: hausnum.validate_topology(v, [[]])),
    ("generate_from_subbasis", "n", "integer", PointOutOfRange,
     lambda v: hausnum.generate_from_subbasis(v, [])),
    ("two_block_topology", "n", "integer", PointOutOfRange,
     lambda v: hausnum.two_block_topology(v)),
    ("two_block_topology", "x0", "integer", BadParameter,
     lambda v: hausnum.two_block_topology(3, v)),
    ("doubled_point_topology", "n", "integer", PointOutOfRange,
     lambda v: hausnum.doubled_point_topology(v)),
    ("doubled_point_topology", "x0", "integer", BadParameter,
     lambda v: hausnum.doubled_point_topology(4, v)),
    ("doubled_point_topology", "x1", "integer", BadParameter,
     lambda v: hausnum.doubled_point_topology(4, 0, v)),
    ("minimal_neighborhood", "a", "integer", PointOutOfRange,
     lambda v: hausnum.minimal_neighborhood(THREE, v)),
    ("count_by_hausdorff", "n", "integer", TooLarge, lambda v: hausnum.count_by_hausdorff(v)),
    ("count_by_hausdorff", "jobs", "integer", TooLarge,
     lambda v: hausnum.count_by_hausdorff(2, jobs=v)),
    ("enumerate_classes", "n", "integer", TooLarge, lambda v: hausnum.enumerate_classes(v)),
    ("enumerate_labeled", "n", "integer", TooLarge, lambda v: hausnum.enumerate_labeled(v)),
    ("enumerate_preorders", "n", "integer", TooLarge,
     lambda v: hausnum.enumerate_preorders(v)),
    ("labeled_and_t0_counts", "n", "integer", TooLarge,
     lambda v: hausnum.labeled_and_t0_counts(v)),
    ("naive_counts", "n", "integer", TooLarge, lambda v: hausnum.naive_counts(v)),
    ("stirling_consistency", "n", "integer", TooLarge,
     lambda v: hausnum.stirling_consistency(v)),
    ("is_n_hausdorff", "bound", "integer", BadParameter,
     lambda v: hausnum.is_n_hausdorff(THREE, v)),
    ("BugEyedSpace", "vertical_count", "integer", BadParameter,
     lambda v: hausnum.BugEyedSpace(v)),
    ("BugEyedSpace", "t1_variant", "flag", BadParameter,
     lambda v: hausnum.BugEyedSpace(2, t1_variant=v)),
    ("Vertical", "m", "integer", BadParameter, lambda v: hausnum.Vertical(v)),
    ("VerticalPoint", "index", "integer", BadParameter, lambda v: hausnum.VerticalPoint(v)),
    ("neighborhood_of", "param", "integer", BadParameter,
     lambda v: hausnum.neighborhood_of(SPACE, hausnum.Vertical(1), v)),
    ("grid_witness_search", "max_param", "integer", BadParameter,
     lambda v: hausnum.grid_witness_search(SPACE, BASES, v)),
    ("restrict", "n", "integer", BadParameter, lambda v: hausnum.restrict(SPACE, v)),
    ("topology_from_dict", "doc", "document", ParseError,
     lambda v: hausnum.topology_from_dict(v)),
]

# For each integer or number parameter with a range, an out-of-range value past the
# interpreter's int-string limit: the error must name it without converting it to text.
LONG = 10 ** 5000
OUT_OF_RANGE = {**dict.fromkeys([
    ("verify_witness", "witness"), ("FiniteTopology", "n"), ("PointSet", "n"),
    ("PointSet", "mask"), ("PointSet.empty", "n"), ("PointSet.full", "n"),
    ("PointSet.from_points", "n"), ("PointSet.singleton", "n"), ("Preorder", "n"),
    ("Preorder.leq", "a"), ("validate_topology", "n"), ("generate_from_subbasis", "n"),
    ("two_block_topology", "n"), ("two_block_topology", "x0"), ("doubled_point_topology", "n"),
    ("doubled_point_topology", "x0"), ("minimal_neighborhood", "a"), ("count_by_hausdorff", "n"),
    ("enumerate_classes", "n"), ("enumerate_labeled", "n"), ("enumerate_preorders", "n"),
    ("labeled_and_t0_counts", "n"), ("naive_counts", "n"), ("stirling_consistency", "n"),
    ("Base", "q")], LONG), **dict.fromkeys([
    ("Cardinal", "value"), ("Finite", "k"), ("PointSet.singleton", "point"), ("Preorder.leq", "b"),
    ("doubled_point_topology", "x1"), ("count_by_hausdorff", "jobs"), ("is_n_hausdorff", "bound"),
    ("BugEyedSpace", "vertical_count"), ("Vertical", "m"), ("VerticalPoint", "index"),
    ("neighborhood_of", "param"), ("grid_witness_search", "max_param"), ("restrict", "n"),
    ("BasePoint", "coordinate")], -LONG)}
# Integer parameters that take every value: an index tested for membership, Stirling's n and k.
NO_RANGE = {("BugEyedSpace.has_vertical", "index"), ("stirling2", "n"), ("stirling2", "k")}

# Public callables outside the table, each with the reason it needs no row.
NOT_SWEPT = {
    **dict.fromkeys(
        ("three_point_example", "filtered_four_point"), "takes no argument"),
    **dict.fromkeys(
        ("SubspaceResult", "CanonicalForm", "CountsTable", "StirlingReport", "AxiomsReport",
         "HausdorffNumber", "SeparationDecision", "SeparationWitness", "SeparabilityVerdict"),
        "a result record, built by the package"),
    **dict.fromkeys(("BasisNeighborhood", "SymbolicPoint"), "a type alias"),
}


@pytest.mark.parametrize("call, error, value", [
    pytest.param(call, error, value, id=f"{entry}:{parameter}-{kind}-{value!r}")
    for entry, parameter, kind, error, call in SWEEP for value in WRONG_KIND[kind]] + [
    pytest.param(call, error, OUT_OF_RANGE[entry, parameter], id=f"{entry}:{parameter}-{kind}-"
                 f"{'-' * (OUT_OF_RANGE[entry, parameter] < 0)}10**5000")
    for entry, parameter, kind, error, call in SWEEP
    if kind in ("integer", "number") and (entry, parameter) in OUT_OF_RANGE])
def test_wrong_kind_argument_raises_its_modules_error(call, error, value):
    """Package objects and their members, collections, symbolic numbers, text, paths,
    flags, documents and integers, and integers out of range past the int-string limit:
    each public reader refuses a value of the wrong kind with a ``TopologyError``, never
    a bare exception, never stores it, and never answers for a space that is not one."""
    with pytest.raises(error):
        result = call(value)
        if isinstance(result, Iterator):  # a generator checks at its first step
            next(result)


def test_a_number_past_the_int_string_limit_is_shown_by_its_size():
    assert [shown(v) for v in (-LONG, Fraction(1, LONG), [LONG], "b:1")] == [
        "a negative int of 16,610 bits", "a positive Fraction of 16,610 bits",
        "a list holding a number past the int-string limit", "'b:1'"]


def long_n_parse_error(key: str) -> str:
    """The text of the ``ParseError`` for a bad point in a document's ``key`` family
    over ``LONG`` points."""
    with pytest.raises(ParseError) as caught:
        hausnum.topology_from_dict({"format": "finite-topology/v1", "n": LONG, key: [[-1]]})
    return str(caught.value)


@pytest.mark.parametrize("call, text", [
    (lambda: repr(hausnum.Vertical(LONG)), "VerticalPoint(index=a positive int of 16,610 bits)"),
    (lambda: hausnum.t1_status(hausnum.BugEyedSpace(LONG, t1_variant=False),
                               hausnum.Vertical(LONG), hausnum.Base(Fraction(1, 2))).explanation,
     "every basic neighborhood of v:a positive int of 16,610 bits contains b:1/2"),
    (lambda: long_n_parse_error("opens"),
     '"opens"[0] contains -1, not a point in 0..a positive int of 16,610 bits'),
    (lambda: long_n_parse_error("subbasis"),
     '"subbasis"[0] contains -1, not a point in 0..a positive int of 16,610 bits'),
], ids=["repr-Vertical", "t1_status-explanation", "topology_from_dict-opens",
        "topology_from_dict-subbasis"])
def test_a_value_past_the_int_string_limit_is_printed_by_its_size(call, text):
    """A record's repr, a point's text and a document error name such a value as
    ``shown`` does."""
    assert call() == text


def parameters(objects: dict) -> set:
    """(entry, parameter) for each parameter of each callable in ``objects`` (name ->
    value) and of each public plain, class or static method of a class among them,
    ``self`` left out; (name, None) for a callable in ``objects`` that takes none."""
    pairs = set()
    for name, value in objects.items():
        if not callable(value):
            continue
        entries = {name: value}
        if inspect.isclass(value):
            entries.update((f"{name}.{attr}", getattr(value, attr)) for attr in dir(value)
                           if not attr.startswith("_") and isinstance(
                               inspect.getattr_static(value, attr),
                               (FunctionType, classmethod, staticmethod)))
        for entry, function in entries.items():
            pairs.update((entry, parameter) for parameter in inspect.signature(function).parameters
                         if parameter != "self")
        if not inspect.signature(value).parameters:
            pairs.add((name, None))
    return pairs


def unswept(objects: dict, rows: set, reasons: dict) -> list:
    """The pairs of ``parameters(objects)`` with no row among ``rows`` and no reason
    for their entry in ``reasons``."""
    return sorted((pair for pair in parameters(objects) - rows if pair[0] not in reasons),
                  key=str)


def test_parameter_check_sees_a_missing_row():
    class Planted:
        def __init__(self, n, flag=False): ...

        @classmethod
        def build(cls, doc): ...

        @staticmethod
        def size(k): ...

        def read(self, other): ...

        def points(self): ...

        def _private(self, x): ...

    def bare(): ...

    rows = {("Planted", "n"), ("Planted.build", "doc"), ("Planted.read", "other")}
    assert unswept({"Planted": Planted, "bare": bare, "CAP": 5}, rows, {}) == [
        ("Planted", "flag"), ("Planted.size", "k"), ("bare", None)]
    assert unswept({"bare": bare}, set(), {"bare": "takes no argument"}) == []


def test_every_public_parameter_has_a_row_or_a_reason():
    """Every parameter of a public callable, and of a public method of an exported
    class, needs a row, or its callable one of the closed list of reasons on
    ``NOT_SWEPT``; a row names a parameter that its entry has."""
    assert {(e, p) for e, p, kind, *_ in SWEEP if kind == "integer"} - NO_RANGE <= set(OUT_OF_RANGE)
    assert set(NOT_SWEPT.values()) <= {
        "takes no argument", "a result record, built by the package", "a type alias"}
    public = {name: getattr(hausnum, name) for name in hausnum.__all__}
    rows = {(entry, parameter) for entry, parameter, *_ in SWEEP}
    listed = {row for row in rows if row[0].split(".")[0] not in hausnum._SUBMODULES}
    assert unswept(public, listed, NOT_SWEPT) == []
    assert listed <= parameters(public)
    assert set(NOT_SWEPT) <= {entry for entry, _ in parameters(public)}
    assert not {entry for entry, _ in listed} & set(NOT_SWEPT)
    for entry, parameter in rows - listed:  # a class of a submodule
        assert parameter in inspect.signature(reduce(getattr, entry.split("."), hausnum)).parameters
