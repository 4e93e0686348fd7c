"""Reading and writing the ``finite-topology/v1`` JSON format.

A topology document is an object with fields ``"format"``, ``"n"`` and either
``"opens"`` (an explicit open family) or ``"subbasis"`` (the loader generates
the smallest topology containing it).  Inner arrays are strictly ascending
0-based point indices.  Emission is bit-exact canonical: opens sorted by
(cardinality, numeric bit-mask encoding), compact separators, sorted keys,
one trailing newline.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ParseError

if TYPE_CHECKING:
    from .core import FiniteTopology

FORMAT_TAG = "finite-topology/v1"


def topology_to_dict(topology: FiniteTopology, name: str | None = None) -> dict:
    doc = {
        "format": FORMAT_TAG,
        "n": topology.n,
        "opens": [list(u) for u in topology.opens],
    }
    if name is not None:
        doc["name"] = name
    return doc


def dumps_canonical(doc: dict) -> str:
    """Byte-stable JSON emission used everywhere a file or stdout is written."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def topology_to_json(topology: FiniteTopology, name: str | None = None) -> str:
    return dumps_canonical(topology_to_dict(topology, name))


def _point_list(value, n: int, where: str) -> list[int]:
    if not isinstance(value, list):
        raise ParseError(f"{where} must be an array")
    for p in value:
        if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < n:
            raise ParseError(f"{where} contains {p!r}, not a point in 0..{n - 1}")
    if any(a >= b for a, b in zip(value, value[1:])):
        raise ParseError(f"{where} is not strictly ascending")
    return value


def topology_from_dict(doc: dict) -> tuple[FiniteTopology, str | None]:
    """Parse a topology document; returns the topology and its optional name.

    The ``opens`` variant is validated; the ``subbasis`` variant is closed
    into a topology.  Malformed documents raise :class:`ParseError`;
    structurally invalid open families propagate :class:`InvalidTopology`.
    """
    if not isinstance(doc, dict):
        raise ParseError("topology document must be a JSON object")
    if doc.get("format") != FORMAT_TAG:
        raise ParseError(f'expected "format": "{FORMAT_TAG}"')
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError('"n" must be a positive integer')

    has_opens = "opens" in doc
    has_subbasis = "subbasis" in doc
    if has_opens == has_subbasis:
        raise ParseError('document must carry exactly one of "opens" or "subbasis"')

    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError('"name" must be a string')

    key = "opens" if has_opens else "subbasis"
    family = doc[key]
    if not isinstance(family, list):
        raise ParseError(f'"{key}" must be an array of arrays')
    sets = [_point_list(entry, n, f'"{key}"[{i}]') for i, entry in enumerate(family)]

    from .core import generate_from_subbasis, validate_topology

    if has_opens:
        return validate_topology(n, sets), name
    return generate_from_subbasis(n, sets), name


def load_topology(source: "str | Path") -> tuple[FiniteTopology, str | None]:
    """Load a topology document from a file path."""
    try:
        text = Path(source).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    return topology_from_dict(doc)
