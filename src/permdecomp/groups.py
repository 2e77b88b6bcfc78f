"""Constructors for the built-in families of transitive groups used as
inner groups for random instances: cyclic, dihedral, alternating and
symmetric, plus two bundled imprimitive groups of degree 16."""

from __future__ import annotations

import re
from importlib import resources

from .groupfile import _MAX_DEGREE, parse_group_text
from .perm import Permutation
from .stabchain import GroupHandle

# ASCII digits only, as in perm and groupfile: \d would also match other
# scripts' digits
_NAME_RE = re.compile(r"([CDAS])([0-9]+)$")


class UnknownGroupName(ValueError):
    """The name is neither a family name nor a bundled group."""


def cyclic(n: int) -> GroupHandle:
    """C_n acting on n points; order n."""
    if n < 2:
        raise ValueError("cyclic group needs degree >= 2")
    rot = Permutation.from_cycles([list(range(1, n + 1))], n)
    return GroupHandle.from_generators([rot], n)


def dihedral(order: int) -> GroupHandle:
    """Dihedral group of the given order acting on order/2 points.

    Follows the order-based naming convention, so D8 is the symmetry group
    of the square (degree 4).
    """
    if order < 6 or order % 2:
        raise ValueError("dihedral order must be an even number >= 6")
    m = order // 2
    rot = Permutation.from_cycles([list(range(1, m + 1))], m)
    refl = Permutation.from_cycles([(i, m + 2 - i) for i in range(2, m // 2 + 2)
                                    if i != m + 2 - i], m)
    return GroupHandle.from_generators([rot, refl], m)


def alternating(n: int) -> GroupHandle:
    """A_n acting on n points; order n!/2."""
    if n < 3:
        raise ValueError("alternating group needs degree >= 3")
    three = Permutation.from_cycles([(1, 2, 3)], n)
    if n == 3:
        return GroupHandle.from_generators([three], n)
    if n % 2:
        big = Permutation.from_cycles([list(range(1, n + 1))], n)
    else:
        big = Permutation.from_cycles([list(range(2, n + 1))], n)
    return GroupHandle.from_generators([three, big], n)


def symmetric(n: int) -> GroupHandle:
    """S_n acting on n points; order n!."""
    if n < 2:
        raise ValueError("symmetric group needs degree >= 2")
    swap = Permutation.from_cycles([(1, 2)], n)
    if n == 2:
        return GroupHandle.from_generators([swap], n)
    cycle = Permutation.from_cycles([list(range(1, n + 1))], n)
    return GroupHandle.from_generators([swap, cycle], n)


def bundled_group_names() -> list[str]:
    """Names of the group files shipped with the package."""
    return sorted(p.name[:-4] for p in resources.files("permdecomp.data").iterdir()
                  if p.name.endswith(".grp"))


def load_bundled_group(name: str) -> GroupHandle:
    """Load one of the bundled group files by name (without extension)."""
    text = resources.files("permdecomp.data").joinpath(f"{name}.grp").read_text("utf-8")
    degree, gens = parse_group_text(text)
    return GroupHandle.from_generators(gens, degree)


def by_name(name: str) -> GroupHandle:
    """Look up a group by a short name: C<n>, D<order>, A<n>, S<n>, or the
    name of a bundled group file.  A family name with a bad parameter raises
    ValueError, and so does one whose degree (n, or order/2 for D) exceeds
    the maximum of a group file, before anything is built: each generator
    would be a table of that many entries.  Any other name raises
    UnknownGroupName."""
    match = _NAME_RE.fullmatch(name.strip())
    if match:
        family, digits = match.group(1), match.group(2).lstrip("0") or "0"
        # digits are counted first, so a digit flood never reaches int()
        limit = 2 * _MAX_DEGREE if family == "D" else _MAX_DEGREE
        if len(digits) > len(str(limit)) or int(digits) > limit:
            raise ValueError(f"the degree exceeds the maximum {_MAX_DEGREE}")
        num = int(digits)
        if family == "C":
            return cyclic(num)
        if family == "D":
            return dihedral(num)
        if family == "A":
            return alternating(num)
        return symmetric(num)
    if name in bundled_group_names():
        return load_bundled_group(name)
    raise UnknownGroupName(f"unknown group name {name!r} "
                           f"(expected C<n>, D<order>, A<n>, S<n> or one of {bundled_group_names()})")
