"""Finest disjoint direct product decomposition of a permutation group.

A group H with orbits O_1..O_k is a subdirect product of its transitive
constituents H|_{O_1} x ... x H|_{O_k}.  This module computes the unique
finest partition of the orbits whose cells carry a direct product
decomposition of H with pairwise disjoint factor supports.

The computation iterates over orbit prefixes.  At step i it holds the
finest partition of orbits 1..i, whose ``max_index`` is the stage i, and a
strong generating set (w.r.t. an orbit-ordered base) in which every element
acting on the first i orbits acts inside one cell ("i-separable").  Each
such element is sifted by the pointwise stabilizer of the first i orbits,
reusing the tail of the stabilizer chain; whether the siftee moves orbit
i+1 decides, cell by cell, which cells must merge with orbit i+1.  Quotient
maps are never materialized: the siftee test is the whole kernel test.

Whether an element moves the prefix, and which cell it acts in, are read
off the base, not off point sets.  A group element fixing the base points
that lie in orbits 1..j fixes those orbits pointwise, because every
candidate the chain builder dropped has a singleton basic orbit in the
stabilizer of the candidates before it (Seress 2003, section 4).  So the
orbit of the first base point an element moves is the smallest orbit it
moves: an element fixing the prefix's base points fixes the prefix, and
otherwise that orbit names its cell.  The rule holds only for elements of
the group.

That first moved base level is read once per position of the walk, not
once per step, because it never changes along the walk.  An element that
fixes the prefix's base points passes through a step unchanged.  A sifted
element x becomes x * h^-1 with h in the pointwise stabilizer of orbits
1..i, so the siftee agrees with x on those orbits; x moves a base point
there, so the siftee moves the same base points of orbits 1..i, and the
first of them is x's.  The walk therefore scans the base once for each
strong generator, and every step reads the levels that the step before
handed on with its elements.

Most of the walk's sifts change nothing, so each position also carries the
stop level of its last sift, and a step skips a sift whose result that stop
already gives.  Say a sift of x from level s stopped at L, where L = m + 1
means it consumed the chain of m levels.  The siftee fixes the base points
of levels s..L-1, and when L <= m its image of level L's base point lies
outside that level's basic orbit.  ``pointwise_stabilizer_level`` does not
decrease in i, so a later step sifts from some s' >= s (a step that starts
before the one that handed the stops on reads none).  If s' <= L, that
sift composes nothing on levels s'..L-1 and stops at L with the same image:
it returns the siftee and L again.  So a step sifts a position only when its
last sift stopped before the step's start level.

Both the walk and the oracle turn their partition into a result through
:func:`decomposition_result`, which is also the certificate.  A factor is
generated by the distinct nontrivial restrictions g|_c of the input
generators to its cell c.  Since H <= prod H|_c and these restrictions
generate prod H|_c, the cells carry a direct product exactly when every g|_c
lies in H, so each is sifted through H's chain on every call; the check reads
the input generators, never the walk's strong generating set.  Factor orders
are read off the chain: a level stabilizer of A x B splits, so the base
points in a cell form a base of that factor.  :attr:`Factor.handle`, the
factor as a group on its cell's own points, is built only on demand.

Everything above reads the one chain, so ``verify=True`` checks that chain:
:func:`~permdecomp.stabchain.audit_chain` proves it complete by Schreier's
lemma, without the builder's sweep, before the walk runs, and each state of
the walk is then checked once for separability.  Once the chain is audited
and the certificate passes, the factor orders read off its levels are the
orders of the factors, and they multiply to |H|, the chain's order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count
from operator import ne
from typing import Iterable, Sequence

from .perm import Permutation, _gather, format_cycles
from .stabchain import (
    GroupHandle,
    OrbitStructure,
    StabilizerChain,
    audit_chain,
    is_member,
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
class Factor:
    """One indecomposable factor of the decomposition."""

    orbit_indices: tuple[int, ...]
    support: tuple[int, ...]
    generators: tuple[Permutation, ...]
    order: int

    @cached_property
    def handle(self) -> GroupHandle:
        """The factor as a group on its own points, built from ``generators``
        on first use: local point i is ``support[i - 1]``."""
        return GroupHandle.on_points(self.generators, self.support)


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


def _first_moved_levels(elements: Iterable[Permutation], base: Sequence[int]) -> tuple[int, ...]:
    """For each element, the level of the first point of ``base`` it moves,
    or ``len(base) + 1`` if it fixes them all.  For an element of the group
    and its orbit-ordered base, the orbit of that base point is the smallest
    orbit the element moves (see the module docstring)."""
    zero = [b - 1 for b in base]
    miss = len(base) + 1
    return tuple(next(compress(count(1), map(ne, map(x._img.__getitem__, zero), zero)), miss)
                 for x in elements)


class _Walk(tuple):
    """A step's elements, carrying each position's first moved base level
    (``levels``) and the stop level of its last sift (``stops``, 0 before
    its first), read against ``chain`` by a step starting at level
    ``start``.  A slice or a sum of such a tuple is a plain tuple, which
    the next step scans afresh and sifts in full."""

    def __new__(cls, elements, levels: tuple[int, ...], stops: tuple[int, ...],
                chain: StabilizerChain, start: int):
        walk = super().__new__(cls, elements)
        walk.levels = levels
        walk.stops = stops
        walk.chain = chain
        walk.start = start
        return walk


def ddpd_step(handle: GroupHandle, i: int, elements: tuple[Permutation, ...],
              partition: OrbitPartition) -> tuple[tuple[Permutation, ...], OrbitPartition]:
    """One refinement step: from an i-separable strong generating set and
    the finest partition of orbits 1..i, produce the (i+1)-separable set and
    the finest partition of orbits 1..i+1.

    The returned tuple lines up with ``elements``: position m holds element
    m's siftee by the prefix stabilizer (the chain tail), or element m itself
    when it fixes orbits 1..i.  A siftee moving orbit i+1 marks for merging
    with {i+1} the cell of the smallest orbit its original moves.

    The returned tuple also carries, as ``levels``, each position's first
    moved base level, which no step changes, and as ``stops`` the stop
    level of each position's last sift (see the module docstring), with the
    chain they were read against.  Handed such a tuple for the same chain,
    a step reads the levels and sifts only the positions whose stop lies
    before its start level; handed it for another chain, or for an earlier
    step, or handed any other tuple, it scans the base once per element and
    sifts every position that moves the prefix.
    """
    _check_step_index(handle, i)
    if partition.max_index != i:
        raise ValueError(f"partition covers orbits 1..{partition.max_index}, not 1..{i}")
    structure = handle.orbit_structure
    next_orbit = structure.orbit(i + 1)
    start = pointwise_stabilizer_level(handle, i)
    chain = handle.chain
    base = chain.base
    carried = isinstance(elements, _Walk) and elements.chain is chain
    levels = elements.levels if carried else _first_moved_levels(elements, base)
    stops = elements.stops if carried and elements.start <= start else (0,) * len(elements)
    marked: set[tuple[int, ...]] = set()
    new_elements = []
    new_stops = []
    for x, level, stop in zip(elements, levels, stops):
        if level < start:
            if stop < start:
                x, stop = sift(chain, x, start)
            if x.moves_any(next_orbit):
                marked.add(partition.cell_of(structure.orbit_of_point(base[level - 1])))
        new_elements.append(x)
        new_stops.append(stop)
    merged = [i + 1]
    cells = []
    for cell in partition.cells:
        if cell in marked:
            merged.extend(cell)
        else:
            cells.append(cell)
    return (_Walk(new_elements, levels, tuple(new_stops), chain, start),
            OrbitPartition(cells + [merged]))


def verify_separability(elements: Sequence[Permutation], partition: OrbitPartition,
                        structure: OrbitStructure) -> bool:
    """True iff every element with nontrivial action on the orbits 1..i
    that ``partition`` covers touches exactly one of its cells."""
    # the 0-based points of those orbits, each with the index of its cell,
    # so that an element is judged by its images of these points alone,
    # gathered in C
    orbits = [(c, structure.orbit(j)) for c, cell in enumerate(partition.cells) for j in cell]
    points = [p - 1 for _, orbit in orbits for p in orbit]
    cells = [c for c, orbit in orbits for _ in orbit]
    fixed = tuple(points)
    for x in elements:
        images = _gather(x._img, points)
        if images != fixed and len(set(compress(cells, map(ne, images, points)))) > 1:
            return False
    return True


def _in_cycle_order(gens: set[Permutation]) -> tuple[Permutation, ...]:
    # format_cycles walks all n points, so no keys for a cell with one generator
    return tuple(sorted(gens, key=format_cycles)) if len(gens) > 1 else tuple(gens)


def decomposition_result(handle: GroupHandle, partition: OrbitPartition) -> DecompositionResult:
    """The result of splitting the group along ``partition`` (see the module
    docstring).  Raises InvariantViolation if the cells carry no direct
    product, and ValueError if they do not cover orbits 1..k."""
    structure = handle.orbit_structure
    if partition.max_index != structure.k:
        raise ValueError(f"partition does not cover orbit indices 1..{structure.k}")
    supports = {cell: tuple(sorted(p for j in cell for p in structure.orbit(j)))
                for cell in partition.cells}
    gens: dict[tuple[int, ...], set[Permutation]] = {cell: set() for cell in partition.cells}
    for g in handle.generators:
        cells = sorted({partition.cell_of(structure.orbit_of_point(p)) for p in g.support()})
        if len(cells) == 1:
            gens[cells[0]].add(g)
            continue
        for cell in cells:
            r = g.restrict(supports[cell])
            if not is_member(handle.chain, r):
                raise InvariantViolation(f"cells not separable: {format_cycles(g)} restricted "
                                         f"to cell {cell} is not in the group")
            gens[cell].add(r)
    orders = dict.fromkeys(partition.cells, 1)
    for level in handle.chain.levels:
        orders[partition.cell_of(structure.orbit_of_point(level.base_point))] *= len(level.coset_reps)
    factors = tuple(Factor(cell, supports[cell], _in_cycle_order(gens[cell]), orders[cell])
                    for cell in partition.cells)
    return DecompositionResult(handle.degree, partition, factors, structure.fixed_points,
                               handle.chain.order, structure)


def decompose_handle(handle: GroupHandle, verify: bool = False) -> DecompositionResult:
    """Finest disjoint direct product decomposition of an orbit-ordered
    group handle.  ``verify`` audits the chain (:func:`audit_chain`), then
    checks walk states 2..k for separability, once each."""
    structure = handle.orbit_structure
    if verify:
        failure = audit_chain(handle.chain, handle.generators)
        if failure is not None:
            raise InvariantViolation(f"chain audit: {failure}")
    elements = handle.chain.strong_generators
    partition = OrbitPartition([[1]] if structure.k else [])
    for i in range(1, structure.k):
        elements, partition = ddpd_step(handle, i, elements, partition)
        if verify and not verify_separability(elements, partition, structure):
            raise InvariantViolation(f"strong generating set not {i + 1}-separable "
                                     f"after step {i}")
    return decomposition_result(handle, partition)


def decompose(generators: Sequence[Permutation], degree: int,
              verify: bool = False) -> DecompositionResult:
    """Finest disjoint direct product decomposition of the group generated
    by ``generators`` inside the symmetric group on 1..degree.

    The factor supports partition the support of the group; the factor
    orders multiply to the group order; each factor admits no further
    decomposition with disjoint supports.  Orbits are processed by smallest
    element; the finest partition is unique, so the order does not change
    the result.  ``verify`` is passed to :func:`decompose_handle`.
    """
    handle = GroupHandle.from_generators(generators, degree)
    return decompose_handle(handle, verify=verify)
