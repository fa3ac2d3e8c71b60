"""File ingestion for graphs, families, and matrices.

Input files are YAML documents.  The document kind is inferred from its
keys: a pattern graph has `left`, `right`, `edges`; an energy graph has
`vertices`, `edges`; a parametrized family has `k`, `params`, `entries`
(with an optional `substitute` block of variable eliminations); a plain
matrix has `rows`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, List

import yaml

from .errors import InputError, SizeLimitError
from .graphs import CosmoGraph, PatternGraph

if TYPE_CHECKING:
    from .discriminant import ParamFamily

__all__ = [
    "load_document",
    "document_kind",
    "ingest_pattern",
    "ingest_cosmo",
    "ingest_family",
    "ingest_matrix",
]


def load_document(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError:
        raise InputError(f"no such input file: {path}")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except yaml.YAMLError as exc:
        raise InputError(f"invalid YAML in {path}: {exc}")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a mapping at top level")
    return doc


def document_kind(doc: dict) -> str:
    keys = set(doc)
    if {"left", "right", "edges"} <= keys:
        return "pattern"
    if {"vertices", "edges"} <= keys:
        return "cosmo"
    if {"k", "params", "entries"} <= keys:
        return "family"
    if "rows" in keys:
        return "matrix"
    raise InputError(
        "unrecognized document: expected keys left/right/edges (pattern graph), "
        "vertices/edges (energy graph), k/params/entries (family), or rows (matrix)"
    )


def _int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _edge_list(raw, what):
    if not isinstance(raw, list):
        raise InputError(f"{what} must be a list of [i, j] pairs")
    out = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise InputError(f"{what}: bad edge {item!r}, expected [i, j]")
        out.append((_int(item[0], f"{what} endpoint"), _int(item[1], f"{what} endpoint")))
    return out


def ingest_pattern(doc: dict) -> PatternGraph:
    left = _int(doc["left"], "left")
    right = _int(doc["right"], "right")
    edges = _edge_list(doc["edges"], "edges")
    return PatternGraph(left, right, edges)


def ingest_cosmo(doc: dict) -> CosmoGraph:
    n = _int(doc["vertices"], "vertices")
    edges = _edge_list(doc["edges"], "edges")
    return CosmoGraph.from_pairs(n, edges)


def ingest_family(doc: dict) -> ParamFamily:
    # imported here: the other documents need none of the pipelines
    from .discriminant import ParamFamily
    from .symcore import VarTable, parse

    k = _int(doc["k"], "k")
    params = doc["params"]
    if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
        raise InputError("params must be a list of variable names")
    entries = doc["entries"]
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise InputError("entries must be a list of rows")
    vt = VarTable(params)
    # the substitute block first: each entry is then parsed once, over the
    # kept variables, with each eliminated name read as its image
    images = {}
    sub = doc.get("substitute")
    if sub is not None:
        if not isinstance(sub, dict):
            raise InputError("substitute must be a mapping of name: expression")
        for name in sub:
            if name not in params:
                raise InputError(f"substitute: unknown variable {name!r}")
        vt = VarTable([p for p in params if p not in sub])
        if not len(vt):
            raise InputError("substitute eliminates every variable")
        for name, expr in sub.items():
            try:
                images[name] = parse(str(expr), vt)
            except (InputError, SizeLimitError) as exc:
                raise type(exc)(f"substitute entry {name!r}: {exc}")
    rows = []
    for i, row in enumerate(entries):
        out_row = []
        for j, cell in enumerate(row):
            try:
                out_row.append(parse(str(cell), vt, images))
            except (InputError, SizeLimitError) as exc:
                raise type(exc)(f"entries row {i}, column {j}: {exc}")
        rows.append(out_row)
    return ParamFamily(k, vt, rows)


def ingest_matrix(doc: dict) -> List[List[Fraction]]:
    """The rows as Fractions.  A cell in exponent notation is refused:
    Fraction expands "1e999999999" to all its digits."""
    rows = doc["rows"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InputError("rows must be a list of lists of rationals")
    out = []
    for i, row in enumerate(rows):
        cells = []
        for j, cell in enumerate(row):
            text = str(cell)
            try:
                if "e" in text.lower():
                    raise ValueError(text)
                cells.append(Fraction(text))
            except (ValueError, ZeroDivisionError):
                raise InputError(f"rows row {i}, column {j}: bad rational {cell!r}")
        out.append(cells)
    return out
