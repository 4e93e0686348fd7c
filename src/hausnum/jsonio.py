"""The package's one JSON reader, and the ``finite-topology/v1`` format it reads and writes.

A topology document is an object with fields ``"format"``, ``"n"`` and either
``"opens"`` (an explicit open family) or ``"subbasis"`` (the loader generates
the smallest topology containing it).  Inner arrays are strictly ascending
0-based point indices.  Emission is bit-exact canonical: opens sorted by
(cardinality, numeric bit-mask encoding), compact separators, sorted keys,
one trailing newline.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ParseError
from .limits import MAX_DOCUMENT_BYTES, MAX_POINTS, is_int, shown

if TYPE_CHECKING:
    from .core import FiniteTopology

FORMAT_TAG = "finite-topology/v1"


def _checked_name(name: "str | None") -> "str | None":
    if name is not None and not isinstance(name, str):
        raise ParseError('"name" must be a string')
    return name


def topology_to_dict(topology: FiniteTopology, name: str | None = None) -> dict:
    from .core import _points, _topology_arg

    doc = {
        "format": FORMAT_TAG,
        "n": _topology_arg(topology).n,
        "opens": [_points(u) for u in topology.open_masks],
    }
    if _checked_name(name) is not None:
        doc["name"] = name
    return doc


def dumps_canonical(doc: dict) -> str:
    """Byte-stable JSON emission used everywhere a file or stdout is written."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def topology_to_json(topology: FiniteTopology, name: str | None = None) -> str:
    return dumps_canonical(topology_to_dict(topology, name))


def _point_mask(value, n: int, key: str, i: int) -> int:
    """The bit mask of ``value``, a strictly ascending list of points in 0..n-1.

    Past ``MAX_POINTS`` the list is only checked and the mask is 0: the core
    refuses such an n before it reads a set, and a point may be too large for
    a mask.
    """
    if not isinstance(value, list):
        raise ParseError(f'"{key}"[{i}] must be an array')
    fits = n <= MAX_POINTS
    mask = 0
    last = -1
    ascending = True
    for p in value:
        if not is_int(p) or not 0 <= p < n:
            raise ParseError(f'"{key}"[{i}] contains {shown(p)}, not a point in 0..{shown(n - 1, str)}')
        if p <= last:
            ascending = False
        last = p
        if fits:
            mask |= 1 << p
    if not ascending:
        raise ParseError(f'"{key}"[{i}] is not strictly ascending')
    return mask


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
    if not is_int(n) or n < 1:
        raise ParseError('"n" must be a positive integer')

    has_opens = "opens" in doc
    has_subbasis = "subbasis" in doc
    if has_opens == has_subbasis:
        raise ParseError('document must carry exactly one of "opens" or "subbasis"')

    name = _checked_name(doc.get("name"))

    key = "opens" if has_opens else "subbasis"
    family = doc[key]
    if not isinstance(family, list):
        raise ParseError(f'"{key}" must be an array of arrays')
    masks = [_point_mask(entry, n, key, i) for i, entry in enumerate(family)]

    from .core import _check_n, _generated, _validated

    _check_n(n)
    return (_validated if has_opens else _generated)(n, masks), name


def read_json(source: "str | Path"):
    """The JSON value in a file; :class:`ParseError` if ``source`` is no path, the file
    cannot be read or holds more than ``MAX_DOCUMENT_BYTES``, is not UTF-8 JSON,
    nests too deep or holds an over-long int."""
    try:
        with Path(source).open("rb") as fh:
            data = fh.read(MAX_DOCUMENT_BYTES + 1)
    except (OSError, TypeError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ParseError(f"cannot read {source}: {exc}") from exc
    if len(data) > MAX_DOCUMENT_BYTES:
        raise ParseError(f"cannot read {source}: more than {MAX_DOCUMENT_BYTES} bytes")
    try:
        # decoded as ``Path.read_text`` decodes: universal newlines, one error position
        return json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc


def load_topology(source: "str | Path") -> tuple[FiniteTopology, str | None]:
    """Load a topology document from a file path."""
    return topology_from_dict(read_json(source))
