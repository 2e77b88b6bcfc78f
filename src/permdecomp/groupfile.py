"""Text formats: group files and decomposition documents.

Group file grammar (UTF-8, LF or CRLF input, LF output)::

    # optional comments
    degree N
    gen <cycle notation>
    gen <cycle notation>
    ...

Decomposition documents are JSON objects with stable key order; group
orders are serialized as decimal strings so consumers need not assume any
integer width.

A group file or document whose degree exceeds ``_MAX_DEGREE`` (10,000,000)
is malformed, and a group file's is rejected before any permutation is
built: each generator becomes a table of ``degree`` entries.
"""

from __future__ import annotations

import json
import re
from typing import Sequence

from . import __version__
from .decompose import DecompositionResult, OrbitPartition
from .perm import CycleFormatError, Permutation, format_cycles, parse_cycles
from .stabchain import GroupHandle

DOCUMENT_FORMAT = "permdecomp-decomposition/1"
SIDECAR_FORMAT = "permdecomp-expected/1"
_DIGITS_RE = re.compile(r"[0-9]+")
_MAX_DEGREE = 10_000_000


class GroupFileError(ValueError):
    """A group file or document failed to parse."""


def parse_group_text(text: str) -> tuple[int, list[Permutation]]:
    degree = None
    generators: list[Permutation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        keyword = fields[0]
        rest = fields[1] if len(fields) > 1 else ""
        if keyword == "degree":
            if degree is not None:
                raise GroupFileError(f"line {lineno}: duplicate degree line")
            # ASCII digits only: int() would also take "+4", "1_0" and
            # other scripts' digits, which the writer never produces
            if not _DIGITS_RE.fullmatch(rest):
                raise GroupFileError(f"line {lineno}: bad degree {rest!r}")
            # the length first: int() refuses long digit strings itself, by
            # a limit that depends on the Python version
            digits = rest.lstrip("0") or "0"
            if len(digits) > len(str(_MAX_DEGREE)) or int(digits) > _MAX_DEGREE:
                raise GroupFileError(f"line {lineno}: degree exceeds the maximum {_MAX_DEGREE}")
            degree = int(digits)
            if degree < 1:
                raise GroupFileError(f"line {lineno}: degree must be positive")
        elif keyword == "gen":
            if degree is None:
                raise GroupFileError(f"line {lineno}: gen before degree")
            try:
                generators.append(parse_cycles(rest, degree))
            except CycleFormatError as exc:
                raise GroupFileError(f"line {lineno}: {exc}") from None
        else:
            raise GroupFileError(f"line {lineno}: unknown keyword {keyword!r}")
    if degree is None:
        raise GroupFileError("missing degree line")
    return degree, generators


def read_group_file(path: str) -> tuple[int, list[Permutation]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GroupFileError(f"cannot read {path}: {exc}") from None
    return parse_group_text(text)


def group_file_text(degree: int, generators: Sequence[Permutation],
                    comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"degree {degree}")
    for g in generators:
        lines.append(f"gen {format_cycles(g)}")
    return "\n".join(lines) + "\n"


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise GroupFileError(f"cannot write {path}: {exc}") from None


def write_group_file(path: str, degree: int, generators: Sequence[Permutation],
                     comments: Sequence[str] = ()) -> None:
    _write_text(path, group_file_text(degree, generators, comments))


def decomposition_document(result: DecompositionResult, method: str) -> dict:
    """JSON-ready document for a decomposition result."""
    return {
        "format": DOCUMENT_FORMAT,
        "method": method,
        "degree": result.degree,
        "orbits": [list(o) for o in result.orbit_structure.orbits],
        "fixed_points": list(result.fixed_points),
        "cells": [list(c) for c in result.partition.cells],
        "factors": [
            {
                "orbits": list(f.orbit_indices),
                "support": list(f.support),
                "generators": [format_cycles(g) for g in f.generators],
                "order": str(f.order),
            }
            for f in result.factors
        ],
        "whole_order": str(result.whole_order),
        "meta": {
            "tool": "permdecomp",
            "version": __version__,
            "rng": None,
            "seed": None,
        },
    }


def dump_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise GroupFileError(f"cannot read {path}: {exc}") from None
    # JSONDecodeError, and a number past int()'s digit limit, are ValueErrors;
    # deep nesting exhausts the decoder's recursion
    except (ValueError, RecursionError) as exc:
        raise GroupFileError(f"{path}: not valid JSON: {exc}") from None
    if (not isinstance(doc, dict) or type(doc.get("degree")) is not int
            or not 1 <= doc["degree"] <= _MAX_DEGREE):
        raise GroupFileError(f"{path}: not a decomposition document with a positive integer "
                             f"degree of at most {_MAX_DEGREE}")
    return doc


def document_supports(doc: dict) -> frozenset[frozenset[int]]:
    """The document's factor supports.  Each must be a nonempty list of
    points of 1..degree (a bool is not a point, although ``True == 1``), and
    no point may appear twice, in one support or in two: they become sets."""
    try:
        supports = [f["support"] for f in doc["factors"]]
    except (KeyError, TypeError) as exc:
        raise GroupFileError(f"document missing factor supports: {exc}") from None
    degree = doc["degree"]
    for sup in supports:
        if type(sup) is not list or not sup or not all(type(p) is int and 1 <= p <= degree
                                                        for p in sup):
            raise GroupFileError(f"factor support {sup!r} is not a list of points in 1..{degree}")
    points = [p for sup in supports for p in sup]
    if len(set(points)) < len(points):
        raise GroupFileError("a point appears twice in the factor supports")
    return frozenset(map(frozenset, supports))


def write_expected_sidecar(group_path: str, handle: GroupHandle, partition: OrbitPartition,
                           inner: str, r: int, s: int, seed: int) -> None:
    """Write ``<group_path>.expected.json``: the true cells and supports."""
    structure = handle.orbit_structure
    sidecar = {
        "format": SIDECAR_FORMAT,
        "degree": handle.degree,
        "inner": inner,
        "r": r,
        "s": s,
        "seed": seed,
        "cells": [list(c) for c in partition.cells],
        "supports": [sorted(p for j in c for p in structure.orbit(j)) for c in partition.cells],
    }
    _write_text(group_path + ".expected.json", json.dumps(sidecar, indent=2) + "\n")
