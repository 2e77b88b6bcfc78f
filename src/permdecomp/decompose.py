"""Finest disjoint direct product decomposition of a permutation group.

A group H with orbits O_1..O_k is a subdirect product of its transitive
constituents H|_{O_1} x ... x H|_{O_k}.  This module computes the unique
finest partition of the orbits whose cells carry a direct product
decomposition of H with pairwise disjoint factor supports.

The computation iterates over orbit prefixes.  At step i it holds a strong
generating set (w.r.t. an orbit-ordered base) in which every element acting
on the first i orbits acts inside a single cell of the current partition
("i-separable").  Each such element is sifted by the pointwise stabilizer
of the first i orbits, reusing the tail of the stabilizer chain; whether
the siftee moves orbit i+1 decides, cell by cell, which cells must merge
with orbit i+1.  Quotient maps are never materialized: the siftee test is
the whole kernel test.

Whether an element moves the prefix, and which cell it acts in, are read
off the base, not off point sets.  A group element fixing the base points
that lie in orbits 1..j fixes those orbits pointwise, because every
candidate the chain builder dropped has a singleton basic orbit in the
stabilizer of the candidates before it (Seress 2003, section 4).  So the
orbit of the first base point an element moves is the smallest orbit it
moves: an element fixing the prefix's base points fixes the prefix, and
otherwise that orbit names its cell.  The rule holds only for elements of
the group.

Each decomposition ends with one certificate, :func:`verify_separability` on the
final strong generating set, which reads supports, not the base: if each
element of a generating set acts inside one cell, the cells carry a direct
product.  Factor orders are read off the chain: a level stabilizer of A x B
splits, so the base points lying in a cell form a base of that factor, whose
order is the product of the basic orbit sizes at those levels.
:attr:`Factor.handle`, the factor's own chain, is built only on demand;
``verify=True`` builds it and checks that the orders agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .perm import Permutation
from .stabchain import (
    GroupHandle,
    OrbitStructure,
    pointwise_stabilizer_level,
    sift,
)


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; names the violated invariant."""


class OrbitPartition:
    """An unordered partition of the orbit indices 1..i into cells.

    Canonical form: cells sorted by smallest element, elements ascending.
    """

    __slots__ = ("cells", "_cell_of")

    def __init__(self, cells: Sequence[Sequence[int]]):
        canon = tuple(sorted(tuple(sorted(c)) for c in cells))
        seen: set[int] = set()
        for cell in canon:
            if not cell:
                raise ValueError("empty cell")
            for x in cell:
                if x in seen:
                    raise ValueError(f"orbit index {x} appears in two cells")
                seen.add(x)
        if seen and seen != set(range(1, max(seen) + 1)):
            raise ValueError(f"cells must cover 1..{max(seen)}: {canon}")
        self.cells = canon
        self._cell_of = {x: cell for cell in canon for x in cell}

    @classmethod
    def initial(cls) -> "OrbitPartition":
        return cls(((1,),))

    @property
    def max_index(self) -> int:
        return max((cell[-1] for cell in self.cells), default=0)

    def cell_of(self, orbit_index: int) -> tuple[int, ...]:
        return self._cell_of[orbit_index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrbitPartition):
            return NotImplemented
        return self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def __repr__(self) -> str:
        inner = "|".join("{" + ",".join(map(str, c)) + "}" for c in self.cells)
        return f"<{inner}>"


@dataclass(frozen=True)
class SeparableSGS:
    """A strong generating set in which, up to the separability index i,
    every element with nontrivial action on the first i orbits acts inside
    exactly one cell of the current partition."""

    elements: tuple[Permutation, ...]
    separability_index: int


@dataclass(frozen=True)
class SifteeRecord:
    """One sifting event inside a decomposition step."""

    original: Permutation
    siftee: Permutation
    cell: tuple[int, ...]
    next_orbit_moved: bool


@dataclass(frozen=True)
class Factor:
    """One indecomposable factor of the decomposition."""

    orbit_indices: tuple[int, ...]
    support: tuple[int, ...]
    generators: tuple[Permutation, ...]
    order: int

    @cached_property
    def handle(self) -> GroupHandle:
        """The factor's own group handle, built from ``generators`` on first
        use.  A factor acts on at least one orbit, so it has a generator."""
        return GroupHandle.from_generators(self.generators, self.generators[0].degree)


@dataclass(frozen=True)
class DecompositionResult:
    degree: int
    partition: OrbitPartition
    factors: tuple[Factor, ...]
    fixed_points: tuple[int, ...]
    whole_order: int
    orbit_structure: OrbitStructure = field(repr=False, compare=False)

    def supports(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(f.support) for f in self.factors)


def compute_N_generators(handle: GroupHandle, i: int) -> list[Permutation]:
    """Generators for the projection onto orbit i+1 of the pointwise
    stabilizer of orbits 1..i: the strong generators fixing that orbit
    prefix, restricted to orbit i+1."""
    _check_step_index(handle, i)
    level = pointwise_stabilizer_level(handle, i)
    if level > len(handle.chain.levels):
        return []
    omega = handle.orbit_structure.orbit(i + 1)
    out = []
    for x in handle.chain.levels[level - 1].level_generators:
        r = x.restrict(omega)
        if not r.is_identity():
            out.append(r)
    return out


def _check_step_index(handle: GroupHandle, i: int) -> None:
    k = handle.orbit_structure.k
    if not 1 <= i < k:
        raise ValueError(f"orbit prefix index {i} out of range 1..{k - 1}")


def _first_moved_orbit(x: Permutation, base: Sequence[int],
                       structure: OrbitStructure) -> int | None:
    """Orbit index of the first point of ``base`` that x moves, or None if
    x fixes them all.  For x in the group and ``base`` a prefix of its
    orbit-ordered base, this is the smallest orbit x moves (see the module
    docstring), or None if x fixes the orbits ``base`` reaches into."""
    img = x._img
    for b in base:
        if img[b - 1] != b - 1:
            return structure.orbit_of_point(b)
    return None


def ddpd_step(handle: GroupHandle, i: int, sgs: SeparableSGS, partition: OrbitPartition,
              records_out: list[SifteeRecord] | None = None,
              verify: bool = False) -> tuple[SeparableSGS, OrbitPartition]:
    """One refinement step: from an i-separable SGS and the finest partition
    of orbits 1..i, produce the (i+1)-separable SGS and finest partition of
    orbits 1..i+1.

    Elements fixing the orbit prefix pass through unchanged; the rest are
    sifted by the prefix stabilizer (the chain tail), and a siftee moving
    orbit i+1 marks its cell for merging with {i+1}.
    """
    _check_step_index(handle, i)
    if sgs.separability_index != i or partition.max_index != i:
        raise ValueError("separability index and partition must both be at stage i")
    structure = handle.orbit_structure
    if verify and not verify_separability(sgs, partition, structure):
        raise InvariantViolation(f"SGS not {i}-separable before step {i}")
    next_orbit = structure.orbit(i + 1)
    start = pointwise_stabilizer_level(handle, i)
    prefix_base = handle.chain.base[:start - 1]
    marked: set[tuple[int, ...]] = set()
    new_elements = []
    for x in sgs.elements:
        j = _first_moved_orbit(x, prefix_base, structure)
        if j is None:
            new_elements.append(x)
            continue
        cell = partition.cell_of(j)
        siftee, _ = sift(handle.chain, x, start)
        new_elements.append(siftee)
        moved = siftee.moves_any(next_orbit)
        if moved:
            marked.add(cell)
        if records_out is not None:
            records_out.append(SifteeRecord(x, siftee, cell, moved))
    merged = [i + 1]
    cells = []
    for cell in partition.cells:
        if cell in marked:
            merged.extend(cell)
        else:
            cells.append(cell)
    next_partition = OrbitPartition(cells + [merged])
    next_sgs = SeparableSGS(tuple(new_elements), i + 1)
    if verify and not verify_separability(next_sgs, next_partition, structure):
        raise InvariantViolation(f"SGS not {i + 1}-separable after step {i}")
    return next_sgs, next_partition


def verify_separability(sgs: SeparableSGS, partition: OrbitPartition,
                        structure: OrbitStructure) -> bool:
    """True iff every element with nontrivial action on the first i orbits
    touches exactly one cell of the partition."""
    i = sgs.separability_index
    if partition.max_index != i:
        raise ValueError("partition must cover exactly the separability range")
    for x in sgs.elements:
        orbits = {structure.orbit_of_point(p) for p in x.support()}
        touched = {partition.cell_of(j) for j in orbits if j is not None and j <= i}
        if len(touched) > 1:
            return False
    return True


def decompose_handle(handle: GroupHandle, verify: bool = False) -> DecompositionResult:
    """Finest disjoint direct product decomposition of an orbit-ordered
    group handle."""
    structure = handle.orbit_structure
    k = structure.k
    whole_order = handle.chain.order
    if k == 0:
        return DecompositionResult(handle.degree, OrbitPartition(()), (),
                                   structure.fixed_points, whole_order, structure)
    sgs = SeparableSGS(handle.chain.strong_generators, 1)
    partition = OrbitPartition.initial()
    for i in range(1, k):
        sgs, partition = ddpd_step(handle, i, sgs, partition, verify=verify)
    if not verify_separability(sgs, partition, structure):
        raise InvariantViolation(f"final SGS not {k}-separable: the cells carry no direct product")

    # each nontrivial element acts inside one cell and moves its first moved
    # base point, whose orbit therefore names the cell
    by_cell: dict[tuple[int, ...], list[Permutation]] = {cell: [] for cell in partition.cells}
    base = handle.chain.base
    for x in sgs.elements:
        j = _first_moved_orbit(x, base, structure)
        if j is not None:  # None: the identity, a group element fixing the base
            by_cell[partition.cell_of(j)].append(x)
    orders = dict.fromkeys(partition.cells, 1)
    for level in handle.chain.levels:
        cell = partition.cell_of(structure.orbit_of_point(level.base_point))
        orders[cell] *= len(level.coset_reps)

    factors = []
    for cell in partition.cells:
        support = tuple(sorted(p for j in cell for p in structure.orbit(j)))
        factor = Factor(cell, support, tuple(by_cell[cell]), orders[cell])
        if verify and factor.handle.order != factor.order:
            raise InvariantViolation(f"factor {cell}: rebuilt order "
                                     f"{factor.handle.order} != chain order {factor.order}")
        factors.append(factor)
    return DecompositionResult(handle.degree, partition, tuple(factors),
                               structure.fixed_points, whole_order, structure)


def decompose(generators: Sequence[Permutation], degree: int,
              orbit_order: Sequence[int] | None = None,
              verify: bool = False) -> DecompositionResult:
    """Finest disjoint direct product decomposition of the group generated
    by ``generators`` inside the symmetric group on 1..degree.

    The factor supports partition the support of the group; the factor
    orders multiply to the group order; each factor admits no further
    decomposition with disjoint supports.  ``orbit_order`` overrides the
    default smallest-element orbit processing order (the result's support
    family does not depend on it).
    """
    handle = GroupHandle.from_generators(generators, degree, orbit_order)
    return decompose_handle(handle, verify=verify)
