"""Permutations of the points 1..n, with cycle-notation parsing and formatting.

Conventions used throughout the package:

* Points are the integers 1..n, where n is the degree of the permutation.
* The image of a point p under g is written ``g.image(p)`` (p^g in the
  usual exponent notation).
* Composition is left to right: ``(g * h).image(p) == h.image(g.image(p))``,
  so p^(gh) = (p^g)^h.

Permutations are immutable and hashable, so they can be freely shared,
stored in sets and used as dictionary keys.

Internally the image table is stored 0-based.  The length of the image
alone picks the representation, and this module applies the rule: images
of length 0..256 are ``bytes`` (every image is 0..255) and compose with one
``bytes.translate``; longer images are tuples of ints and compose with one
``operator.itemgetter`` call.  Outside it, only ``stabchain`` reads the
cutoff (``_MAX_BYTES_DEGREE``), to place its cut point t0.
``stabchain.build_chain`` also runs on raw images that are not a
``Permutation``'s: an element's action on its first m or first 256 points,
stored by the same rule, so a prefix of at most 256 points is ``bytes``
whatever the degree, and :func:`_padded` extends such an image with fixed
points.

A ``Permutation`` holds its image and nothing else.  The right operand of
a product (:func:`_operand`) is the image itself, or for ``bytes`` the
image padded to a 256-byte translate table with fixed points; the pad is
never read, since ``bytes.translate`` looks up only the input's values,
which are below the degree.
"""

from __future__ import annotations

import re
from functools import cache
from operator import itemgetter, ne
from typing import Iterable, Sequence


class CycleFormatError(ValueError):
    """Raised when a cycle-notation string does not match the grammar."""


_MAX_BYTES_DEGREE = 256
_ID = bytes(range(256))

# after stripping whitespace: "()" alone, or one or more cycles of >= 2
# points in ASCII digits (\d would also match other scripts' digits)
_PERM_RE = re.compile(r"(\([0-9]+(?:,[0-9]+)+\))+")
_CYCLE_RE = re.compile(r"\(([0-9,]+)\)")


def _as_image(table: Sequence[int]) -> bytes | tuple[int, ...]:
    """The stored form of a 0-based image table."""
    return bytes(table) if len(table) <= _MAX_BYTES_DEGREE else tuple(table)


@cache
def _identity_image(degree: int) -> bytes | tuple[int, ...]:
    return _as_image(range(degree))


@cache
def _mask_constants(degree: int) -> tuple[int, int]:
    # _moved_mask's constants for a bytes image: the identity image as an
    # int, and the int whose bytes 0..degree-1 are 1
    return int.from_bytes(_identity_image(degree), "little"), int.from_bytes(b"\1" * degree, "little")


def _moved_mask(img: bytes | tuple[int, ...]) -> int:
    """The int whose byte i is 1 when the raw image ``img`` moves index i,
    and 0 otherwise."""
    if len(img) > _MAX_BYTES_DEGREE:
        return int.from_bytes(bytes(map(ne, img, _identity_image(len(img)))), "little")
    ident, ones = _mask_constants(len(img))
    # fold each byte of the xor onto its lowest bit
    x = int.from_bytes(img, "little") ^ ident
    x |= x >> 4
    x |= x >> 2
    x |= x >> 1
    return x & ones


def _operand(img: bytes | tuple[int, ...]) -> bytes | tuple[int, ...]:
    """The right operand of :meth:`Permutation._composer` for a raw image:
    the image padded with fixed points to a 256-byte translate table, or
    the tuple itself."""
    return img + _ID[len(img):] if len(img) <= _MAX_BYTES_DEGREE else img


def _relabel(perms: Iterable["Permutation"], points: Sequence[int]) -> list[bytes | tuple[int, ...]]:
    """Raw images of ``perms`` on the invariant points ``points`` (1-based),
    relabelled so that ``points[i]`` becomes i: permutations of degree
    ``len(points)``, stored as that degree dictates.  ``ValueError`` names
    a point when ``points`` does not ascend strictly within 1..degree, or
    when a permutation maps it outside ``points``."""
    for prev, p in zip(points, points[1:]):
        if p <= prev:
            raise ValueError(f"points not strictly ascending: {p} after {prev}")
    # two gathers in C: the points' images, then their local indices, which
    # a point outside the set lacks
    indices = [p - 1 for p in points]
    local = dict(zip(indices, range(len(indices))))
    out = []
    for g in perms:
        img = g._img
        if points and not 1 <= points[0] <= points[-1] <= len(img):
            bad = next(p for p in points if not 1 <= p <= len(img))
            raise ValueError(f"point {bad} out of range 1..{len(img)}")
        try:
            row = _gather(local, _gather(img, indices))
        except KeyError:
            p = next(p for p in points if img[p - 1] not in local)
            raise ValueError(f"point set not invariant: {p} maps to {img[p - 1] + 1}") from None
        out.append(_as_image(row))
    return out


def _gather(seq: Sequence | dict, indices: Sequence[int]) -> tuple:
    """The tuple of ``seq[i]`` for i in ``indices``, gathered in C."""
    if len(indices) > 1:
        return itemgetter(*indices)(seq)
    return tuple(map(seq.__getitem__, indices))


def _padded(img: bytes | tuple[int, ...], degree: int) -> bytes | tuple[int, ...]:
    """The stored form of the image of ``degree`` indices that acts on the
    first ``len(img)`` as ``img`` does and fixes the others."""
    tail = _identity_image(degree)[len(img):]
    # bytes and a tuple only meet past degree 256, whose form is a tuple
    return img + tail if type(tail) is type(img) else (*img, *tail)


def _inverse_operand(img: bytes | tuple[int, ...]) -> bytes | tuple[int, ...]:
    """The right operand of :meth:`Permutation._composer` for the inverse of
    the raw image ``img``: ``_operand`` of the inverse's image."""
    n = len(img)
    if n <= _MAX_BYTES_DEGREE:
        # maketrans sends img[i] to i and fixes the indices past n
        return bytes.maketrans(img + _ID[n:], _ID)
    inv = [0] * n
    for i, x in enumerate(img):
        inv[x] = i
    return tuple(inv)


def _compose_tuples(img: tuple[int, ...], tbl: tuple[int, ...]) -> tuple[int, ...]:
    # only used above degree 256, so there are always at least two indices
    # and itemgetter returns a tuple, never a bare int
    return itemgetter(*img)(tbl)


class Permutation:
    """A permutation of 1..degree, stored as an image table."""

    __slots__ = ("_img",)

    def __init__(self, images: Sequence[int]):
        """Build a permutation from its 1-based image table.

        ``images[p - 1]`` is the image of point p.  The table must be a
        bijection on 1..len(images).
        """
        n = len(images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        zero_based = [p - 1 for p in images]
        if sorted(zero_based) != list(range(n)):
            raise ValueError(f"not a bijection on 1..{n}: {images!r}")
        self._img = _as_image(zero_based)

    @classmethod
    def _make(cls, img) -> "Permutation":
        # trusted constructor for internal use: img is already a valid
        # 0-based table of the right type
        p = object.__new__(cls)
        p._img = img
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be at least 1")
        return cls._make(_identity_image(degree))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Iterable[int]], degree: int) -> "Permutation":
        """Build a permutation from disjoint cycles of 1-based points."""
        if degree < 1:
            raise ValueError("degree must be at least 1")
        table = list(range(degree))
        seen = set()
        for cycle in cycles:
            cycle = list(cycle)
            for p in cycle:
                if not 1 <= p <= degree:
                    raise ValueError(f"point {p} out of range 1..{degree}")
                if p in seen:
                    raise ValueError(f"point {p} repeated; cycles must be disjoint")
                seen.add(p)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                table[a - 1] = b - 1
        return cls._make(_as_image(table))

    @property
    def degree(self) -> int:
        return len(self._img)

    def image(self, p: int) -> int:
        """Return p^g, the image of point p (1-based)."""
        if not 1 <= p <= len(self._img):
            raise ValueError(f"point {p} out of range 1..{len(self._img)}")
        return self._img[p - 1] + 1

    def is_identity(self) -> bool:
        return self._img == _identity_image(len(self._img))

    @staticmethod
    def _composer(degree: int):
        """The raw product for images of length ``degree``: ``op(a,
        _operand(b))`` is the image of the product of the images a and b.
        Hot loops fetch it once and run on raw images."""
        return bytes.translate if degree <= _MAX_BYTES_DEGREE else _compose_tuples

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Left-to-right composition: apply self first, then other."""
        a = self._img
        if len(a) != len(other._img):
            raise ValueError(f"degree mismatch: {len(a)} vs {len(other._img)}")
        return Permutation._make(Permutation._composer(len(a))(a, _operand(other._img)))

    def inverse(self) -> "Permutation":
        return Permutation._make(_inverse_operand(self._img)[:len(self._img)])

    def conjugate(self, s: "Permutation") -> "Permutation":
        """Return s^-1 * self * s.

        The support of the result is the image of the support of self
        under s.
        """
        if len(self._img) != len(s._img):
            raise ValueError(f"degree mismatch: {len(self._img)} vs {len(s._img)}")
        return s.inverse() * self * s

    def support(self) -> frozenset[int]:
        """The set of points moved by this permutation (1-based)."""
        return frozenset(i + 1 for i, x in enumerate(self._img) if x != i)

    def moves_any(self, points: Iterable[int]) -> bool:
        img = self._img
        return any(img[p - 1] != p - 1 for p in points)

    def restrict(self, points: Iterable[int]) -> "Permutation":
        """The permutation agreeing with self on ``points`` and fixing
        everything else.

        ``points`` must be invariant under self; the degree is kept, so the
        result lives in the same symmetric group.
        """
        img = self._img
        n = len(img)
        keep = set(points)
        table = list(range(n))
        for p in keep:
            if not 1 <= p <= n:
                raise ValueError(f"point {p} out of range 1..{n}")
            q = img[p - 1] + 1
            if q not in keep:
                raise ValueError(f"point set not invariant: {p} maps to {q}")
            table[p - 1] = q - 1
        return Permutation._make(_as_image(table))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its smallest point, sorted
        by smallest moved point."""
        img = self._img
        n = len(img)
        seen = [False] * n
        out = []
        for i in range(n):
            if seen[i] or img[i] == i:
                continue
            cycle = [i + 1]
            seen[i] = True
            j = img[i]
            while j != i:
                seen[j] = True
                cycle.append(j + 1)
                j = img[j]
            out.append(tuple(cycle))
        return tuple(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._img == other._img

    def __hash__(self) -> int:
        return hash(self._img)

    def __str__(self) -> str:
        return format_cycles(self)

    def __repr__(self) -> str:
        return f"Permutation[{format_cycles(self)}, degree={len(self._img)}]"


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse cycle notation like ``(1,2,3)(7,9,8)`` into a permutation.

    Grammar: ``perm := "()" | cycle+`` with ``cycle := "(" int ("," int)+ ")"``.
    Whitespace is ignored, points are positive integers in ASCII digits, and
    cycles must be disjoint.  The identity is written ``()``.
    """
    stripped = re.sub(r"\s+", "", text)
    if stripped == "()":
        return Permutation.identity(degree)
    if not _PERM_RE.fullmatch(stripped):
        raise CycleFormatError(f"malformed cycle notation: {text!r}")
    cycles = []
    width = len(str(degree))
    for body in _CYCLE_RE.findall(stripped):
        # a point has at most the degree's digits: checked before int(),
        # which refuses long digit strings by a limit that varies with the
        # Python version
        toks = [tok.lstrip("0") or "0" for tok in body.split(",")]
        longest = max(map(len, toks))
        if longest > width:
            raise CycleFormatError(f"a point of {longest} digits is out of range 1..{degree}")
        points = [int(tok) for tok in toks]
        if any(p < 1 for p in points):
            raise CycleFormatError(f"points must be positive: {text!r}")
        cycles.append(points)
    try:
        return Permutation.from_cycles(cycles, degree)
    except ValueError as exc:
        raise CycleFormatError(str(exc)) from exc


def format_cycles(g: Permutation) -> str:
    """Canonical cycle string: cycles sorted by smallest moved point, each
    starting at its smallest point; the identity formats as ``()``."""
    cycles = g.cycles()
    if not cycles:
        return "()"
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)
