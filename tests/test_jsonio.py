import json

import pytest

from hausnum.constructions import three_point_example
from hausnum.core import _check_point, generate_from_subbasis, validate_topology
from hausnum.enumeration import enumerate_labeled
from hausnum.errors import InvalidTopology, ParseError, PointOutOfRange
from hausnum.jsonio import (
    _point_mask,
    load_topology,
    read_json,
    topology_from_dict,
    topology_to_dict,
    topology_to_json,
)
from hausnum.limits import MAX_DOCUMENT_BYTES, is_int

from conftest import UNREADABLE_FILES


def test_document_shape():
    doc = topology_to_dict(three_point_example(), name="three-point")
    assert doc == {
        "format": "finite-topology/v1",
        "n": 3,
        "opens": [[], [0], [1, 2], [0, 1, 2]],
        "name": "three-point",
    }


def test_canonical_emission_is_byte_stable():
    t = three_point_example()
    text = topology_to_json(t)
    assert text == topology_to_json(t)
    assert text.endswith("\n")
    assert json.loads(text)["opens"] == [[], [0], [1, 2], [0, 1, 2]]


def test_roundtrip_all_small_topologies():
    for n in (1, 2, 3):
        for t in enumerate_labeled(n):
            loaded, name = topology_from_dict(topology_to_dict(t))
            assert loaded == t and name is None


def test_subbasis_variant():
    doc = {"format": "finite-topology/v1", "n": 3, "subbasis": [[1], [2], [0, 1]]}
    loaded, _ = topology_from_dict(doc)
    assert loaded == generate_from_subbasis(3, [[1], [2], [0, 1]])


@pytest.mark.parametrize("name", [5, b"x", ["x"]])
def test_writer_refuses_a_name_its_reader_refuses(name):
    doc = topology_to_dict(three_point_example())
    with pytest.raises(ParseError) as read:
        topology_from_dict({**doc, "name": name})
    with pytest.raises(ParseError) as written:
        topology_to_dict(three_point_example(), name=name)
    assert str(written.value) == str(read.value) == '"name" must be a string'


def test_file_roundtrip(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(topology_to_json(three_point_example(), name="x"))
    loaded, name = load_topology(path)
    assert loaded == three_point_example()
    assert name == "x"


def test_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_topology(tmp_path / "nope.json")


def test_read_json_decodes_any_value(tmp_path):
    path = tmp_path / "value.json"
    path.write_text('[1, {"a": null}]\n')
    assert read_json(path) == [1, {"a": None}]


@pytest.mark.parametrize("name", sorted(UNREADABLE_FILES))
def test_read_json_refuses_an_undecodable_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNREADABLE_FILES[name])
    with pytest.raises(ParseError, match="^not valid JSON: "):
        read_json(path)


def test_read_json_reads_a_file_at_the_cap(tmp_path):
    path = tmp_path / "padded.json"
    path.write_bytes(b"[]".ljust(MAX_DOCUMENT_BYTES))
    assert read_json(path) == []


def test_source_past_the_cap_cannot_be_read(tmp_path, place_oversized):
    path = place_oversized(tmp_path / "big.json")
    with pytest.raises(ParseError) as raised:
        load_topology(path)
    assert str(raised.value) == f"cannot read {path}: more than {MAX_DOCUMENT_BYTES} bytes"


def test_path_with_a_nul_cannot_be_read():
    # the fault is the path's, not the content's: undecodable content stays "not valid JSON"
    with pytest.raises(ParseError) as raised:
        load_topology("a\0b")
    assert str(raised.value) == "cannot read a\0b: embedded null byte"


@pytest.mark.parametrize("doc,fragment", [
    ({"n": 2, "opens": [[], [0, 1]]}, "format"),
    ({"format": "finite-topology/v1", "opens": [[], [0]]}, '"n"'),
    ({"format": "finite-topology/v1", "n": 2}, "exactly one"),
    ({"format": "finite-topology/v1", "n": 2,
      "opens": [[], [0, 1]], "subbasis": [[0]]}, "exactly one"),
    ({"format": "finite-topology/v1", "n": 2, "opens": [[], [1, 0]]}, "ascending"),
    ({"format": "finite-topology/v1", "n": 2, "opens": [[], [0, 0]]}, "ascending"),
    ({"format": "finite-topology/v1", "n": 2, "opens": [[], [2]]}, "point"),
    ({"format": "finite-topology/v1", "n": 2, "opens": "nope"}, "array"),
])
def test_malformed_documents(doc, fragment):
    with pytest.raises(ParseError) as err:
        topology_from_dict(doc)
    assert fragment in str(err.value)


def test_invalid_family_propagates():
    doc = {"format": "finite-topology/v1", "n": 2, "opens": [[], [0], [1]]}
    with pytest.raises(InvalidTopology):
        topology_from_dict(doc)


def test_validate_equals_direct_loader_output():
    doc = {"format": "finite-topology/v1", "n": 3,
           "opens": [[0, 1, 2], [], [1, 2], [0]]}
    loaded, _ = topology_from_dict(doc)
    assert loaded == validate_topology(3, [[], [0], [1, 2], [0, 1, 2]])


@pytest.mark.parametrize("opens, message", [
    ([[], [True], [0, 1, 2]], '"opens"[1] contains True, not a point in 0..2'),
    ([[], [0, -1], [0, 1, 2]], '"opens"[1] contains -1, not a point in 0..2'),
    ([[], [0.0], [0, 1, 2]], '"opens"[1] contains 0.0, not a point in 0..2'),
    ([[], [2, 1, 7], [0, 1, 2]], '"opens"[1] contains 7, not a point in 0..2'),
    ([[], [1, 1], [0, 1, 2]], '"opens"[1] is not strictly ascending'),
    ([[], 5, [0, 1, 2]], '"opens"[1] must be an array'),
    ([[], (0,), [0, 1, 2]], '"opens"[1] must be an array'),
])
def test_first_defect_is_named(opens, message):
    with pytest.raises(ParseError) as err:
        topology_from_dict({"format": "finite-topology/v1", "n": 3, "opens": opens})
    assert str(err.value) == message


class Point(int):
    pass


def test_int_subclass_points_are_accepted():
    doc = {"format": "finite-topology/v1", "n": 3,
           "opens": [[], [Point(0)], [Point(1), Point(2)], [0, 1, Point(2)]]}
    assert topology_from_dict(doc)[0] == three_point_example()


@pytest.mark.parametrize("value, accepted", [
    (0, True), (2, True), (Point(1), True), (True, False), (False, False),
    (1.0, False), ("1", False), (-1, False), (3, False),
])
def test_point_mask_accepts_what_the_core_point_check_accepts(value, accepted):
    """The loader keeps its own inline point test on its hot path; it must
    accept exactly the values of ``core._check_point``: the ints of
    ``limits.is_int`` in range."""
    def passes(check, error):
        try:
            check()
        except error:
            return False
        return True

    assert passes(lambda: _check_point(3, value), PointOutOfRange) is accepted
    assert passes(lambda: _point_mask([value], 3, "opens", 0), ParseError) is accepted
    assert (is_int(value) and 0 <= value < 3) is accepted


def test_point_count_past_the_cap_is_refused_before_any_mask():
    n = 10 ** 12
    doc = {"format": "finite-topology/v1", "n": n, "opens": [[], [n - 1]]}
    with pytest.raises(PointOutOfRange):
        topology_from_dict(doc)
    doc["opens"].append([n])
    with pytest.raises(ParseError):
        topology_from_dict(doc)
