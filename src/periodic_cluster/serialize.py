"""JSON documents for trees, functions, and matrices.

All numbers are exact: integers stay JSON integers, rationals travel as
"p/q" strings in lowest terms with a positive denominator.  Floats are
rejected on input so no tolerance question ever arises.  Emission is
deterministic: fixed key order, fixed edge order, no whitespace drift.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .functions import PeriodicFunction
from .quiver import SignFunction
from .tree import DOWN, UP, Edge, PeriodicTree

__all__ = [
    "FORMAT_TAG",
    "SchemaError",
    "rational_to_str",
    "parse_rational",
    "tree_to_dict",
    "tree_from_dict",
    "function_to_dict",
    "function_from_dict",
    "matrix_to_lists",
    "dumps",
]

FORMAT_TAG = "periodic-cluster/1"

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")


class SchemaError(ValueError):
    """A document is well-formed JSON but not a valid document shape."""


def rational_to_str(x) -> str:
    return str(Fraction(x))


def parse_rational(value) -> Fraction:
    # bool is an int subclass; reject it along with floats
    if isinstance(value, bool):
        raise SchemaError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise SchemaError(f"not an exact rational: {value!r}")
        return Fraction(text)
    raise SchemaError(f"expected a rational, got {type(value).__name__}")


def _expect_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def _expect_dict(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be an object, got {type(value).__name__}")
    return value


def _check_format(doc: dict) -> None:
    tag = doc.get("format", FORMAT_TAG)
    if tag != FORMAT_TAG:
        raise SchemaError(f"unsupported format tag {tag!r}")


def tree_to_dict(tree: PeriodicTree) -> dict:
    return {
        "n": tree.n,
        "epsilon": tree.eps.to_string(),
        "edges": [
            {"left": e.left, "right": e.right, "dir": e.dir} for e in tree.edges
        ],
    }


def tree_from_dict(doc) -> PeriodicTree:
    doc = _expect_dict(doc, "tree document")
    _check_format(doc)
    if "epsilon" not in doc or "edges" not in doc:
        raise SchemaError("tree document needs 'epsilon' and 'edges'")
    if not isinstance(doc["epsilon"], str):
        raise SchemaError("'epsilon' must be a string over +/-")
    eps = SignFunction.from_string(doc["epsilon"])
    if "n" in doc and _expect_int(doc["n"], "'n'") != eps.n:
        raise SchemaError("'n' disagrees with the length of 'epsilon'")
    if not isinstance(doc["edges"], list):
        raise SchemaError("'edges' must be a list")
    edges = []
    for item in doc["edges"]:
        item = _expect_dict(item, "edge")
        try:
            left = item["left"]
            right = item["right"]
            direction = item["dir"]
        except KeyError as missing:
            raise SchemaError(f"edge needs key {missing}") from None
        if direction not in (UP, DOWN):
            raise SchemaError(f"edge dir must be '{UP}' or '{DOWN}'")
        edges.append(
            Edge(_expect_int(left, "edge left"), _expect_int(right, "edge right"), direction)
        )
    return PeriodicTree(eps, edges)


def function_to_dict(pi: PeriodicFunction) -> dict:
    return {
        "values": [rational_to_str(v) for v in pi.values],
        "m": rational_to_str(pi.m),
    }


def function_from_dict(doc) -> PeriodicFunction:
    doc = _expect_dict(doc, "function document")
    _check_format(doc)
    if "values" not in doc or "m" not in doc:
        raise SchemaError("function document needs 'values' and 'm'")
    if not isinstance(doc["values"], list) or not doc["values"]:
        raise SchemaError("'values' must be a nonempty list")
    values = tuple(parse_rational(v) for v in doc["values"])
    return PeriodicFunction(values, parse_rational(doc["m"]))


def matrix_to_lists(matrix) -> list[list[int]]:
    """Row-major integer lists; non-integer entries are a caller bug."""
    rows = []
    for row in matrix:
        out = []
        for x in row:
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError(f"matrix entry {x} is not an integer")
                x = x.numerator
            out.append(int(x))
        rows.append(out)
    return rows


def dumps(obj) -> str:
    """Compact deterministic JSON; insertion order is the schema order."""
    return json.dumps(obj, ensure_ascii=True, separators=(", ", ": "))
