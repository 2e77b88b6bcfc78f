"""Ground-truth machinery: brute-force finest decomposition, decomposition
verification, indecomposability testing and a random instance generator.

The brute-force search follows the classic exponential recipe: try all
bipartitions of the orbit set in order of increasing size of the smaller
part, recurse into the halves of the first valid split, and declare a set
of orbits indecomposable when no bipartition is valid.

Validity of a candidate split rests on an order argument.  The group H
restricted to a union of orbits C is a subdirect product of its restrictions
to the two halves, and a subdirect product of A x B equals A x B exactly
when 1 x B is contained in it.  Counting gives |H|_C| = |H|_T| * |K| where K
is the kernel of the projection onto the half T, and K is contained in
1 x H|_{C\\T}; so the split is a direct product iff
|H|_C| = |H|_T| * |H|_{C\\T}|.  Checking three orders replaces any explicit
subgroup containment test.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .decompose import OrbitPartition, DecompositionResult
from .perm import Permutation
from .stabchain import (
    GroupHandle,
    OrderBoundExceeded,
    build_chain,
    is_member,
    random_element,
)

DEFAULT_ORBIT_CAP = 12
DEFAULT_RETRY_BUDGET = 1000


class OrbitCapExceeded(RuntimeError):
    """The instance has more orbits than the brute-force search allows."""


class RetryBudgetExhausted(RuntimeError):
    """make_subdirect kept producing rejected groups; the (G, s) combination
    is pathological for this construction."""


class ComputationTimeout(RuntimeError):
    """A cooperative deadline expired inside a long-running computation."""


class DisjointSet:
    """Union-find over 1..n with path compression and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n + 1))
        self.size = [1] * (n + 1)

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

    def groups(self) -> list[list[int]]:
        out: dict[int, list[int]] = {}
        for x in range(1, len(self.parent)):
            out.setdefault(self.find(x), []).append(x)
        return sorted(out.values())


@dataclass(frozen=True)
class RandomInstanceSpec:
    """Parameters for one random decomposable-group instance: r subdirect
    factors, each spanning s copies of a transitive inner group."""

    inner_group: GroupHandle
    r: int
    s: int
    seed: int

    def __post_init__(self):
        if self.r < 1 or self.s < 1:
            raise ValueError("r and s must be at least 1")
        if self.inner_group.orbit_structure.k != 1:
            raise ValueError("inner group must be transitive")
        if len(self.inner_group.orbit_structure.orbit(1)) != self.inner_group.degree:
            raise ValueError("inner group must be transitive on its full point set")


@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    left_supports: frozenset[frozenset[int]]
    right_supports: frozenset[frozenset[int]]
    mismatch: str | None = None


def _restricted_generators(handle: GroupHandle, key: frozenset[int]) -> tuple[list[Permutation], list[int]]:
    support = sorted(p for j in key for p in handle.orbit_structure.orbit(j))
    gens = []
    for g in handle.generators:
        r = g.restrict(support)
        if not r.is_identity():
            gens.append(r)
    return gens, support


def restriction_order(handle: GroupHandle, orbit_indices: Sequence[int],
                      cache: dict | None = None) -> int:
    """Order of the restriction of the group to the union of the given
    orbits, computed by a fresh chain on the restricted generators."""
    key = frozenset(orbit_indices)
    if cache is not None and key in cache:
        return cache[key]
    gens, support = _restricted_generators(handle, key)
    order = build_chain(gens, handle.degree, support).order
    if cache is not None:
        cache[key] = order
    return order


def _restriction_order_equals(handle: GroupHandle, orbit_indices: Sequence[int],
                              target: int, cache: dict) -> bool:
    """Whether the restriction order equals ``target``.

    The restriction order can only be >= target in the contexts where this
    is called, so a partial chain whose transversal product exceeds the
    target settles the question without a full verification sweep."""
    key = frozenset(orbit_indices)
    if key in cache:
        return cache[key] == target
    gens, support = _restricted_generators(handle, key)
    try:
        order = build_chain(gens, handle.degree, support, abort_above=target).order
    except OrderBoundExceeded:
        return False
    cache[key] = order
    return order == target


def _node_chain(handle: GroupHandle, key: frozenset[int], cache: dict):
    """Exact chain and generator/support profile for the restriction to an
    orbit subset, memoized per subset across the brute-force recursion."""
    entry = cache.get(("node", key))
    if entry is None:
        if key == frozenset(range(1, handle.orbit_structure.k + 1)):
            gens = list(handle.generators)
            chain = handle.chain
        else:
            gens, support = _restricted_generators(handle, key)
            chain = build_chain(gens, handle.degree, support)
        entry = ([(g, g.support()) for g in gens], chain)
        cache[("node", key)] = entry
        cache[key] = chain.order
    return entry


def verify_decomposition(handle: GroupHandle, partition: OrbitPartition,
                         cache: dict | None = None) -> bool:
    """True iff the partition's cells give a direct product decomposition:
    the per-cell restriction orders multiply to the group order."""
    k = handle.orbit_structure.k
    covered = [x for cell in partition.cells for x in cell]
    if sorted(covered) != list(range(1, k + 1)):
        raise ValueError(f"partition does not cover orbit indices 1..{k}")
    product = 1
    for cell in partition.cells:
        product *= restriction_order(handle, cell, cache)
        if product > handle.order:
            return False
    return product == handle.order


def brute_force_decompose(handle: GroupHandle, cap: int = DEFAULT_ORBIT_CAP,
                          pairs_first: bool = False,
                          deadline: float | None = None) -> OrbitPartition:
    """Finest partition by recursive bipartition search (the exponential
    baseline the fast algorithm is compared against).

    ``pairs_first`` enables the classic improvement of first gluing together
    orbit pairs whose 2-orbit restriction is indecomposable.  ``deadline``
    is a time.monotonic() value after which ComputationTimeout is raised.
    """
    k = handle.orbit_structure.k
    if k > cap:
        raise OrbitCapExceeded(f"{k} orbits exceeds the configured cap {cap}")
    if k == 0:
        return OrbitPartition(())
    cache: dict = {}

    units: list[tuple[int, ...]]
    if pairs_first:
        dsu = DisjointSet(k)
        for a, b in combinations(range(1, k + 1), 2):
            split_order = (restriction_order(handle, (a,), cache)
                           * restriction_order(handle, (b,), cache))
            if not _restriction_order_equals(handle, (a, b), split_order, cache):
                dsu.union(a, b)
        units = [tuple(g) for g in dsu.groups()]
    else:
        units = [(j,) for j in range(1, k + 1)]

    structure = handle.orbit_structure

    def split(current: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
        indices = tuple(sorted(x for unit in current for x in unit))
        if len(current) == 1:
            return [indices]
        # one exact chain per recursion node; every candidate bipartition is
        # then a handful of membership sifts: the split H|_C = H|_T x H|_C\T
        # holds iff each node generator restricted to T's support stays in
        # the node group
        profile, chain = _node_chain(handle, frozenset(indices), cache)
        for size in range(1, len(current) // 2 + 1):
            for chosen in combinations(range(len(current)), size):
                if deadline is not None and time.monotonic() > deadline:
                    raise ComputationTimeout("brute-force decomposition timed out")
                # unordered bipartitions: when halves have equal unit
                # counts, pin unit 0 to the chosen side
                if 2 * size == len(current) and chosen[0] != 0:
                    continue
                left_support = frozenset(p for idx in chosen
                                         for j in current[idx] for p in structure.orbit(j))
                for g, gsup in profile:
                    if gsup <= left_support or not (gsup & left_support):
                        continue
                    if not is_member(chain, g.restrict(left_support)):
                        break
                else:
                    chosen_set = set(chosen)
                    picked = tuple(current[idx] for idx in chosen)
                    rest = tuple(u for idx, u in enumerate(current) if idx not in chosen_set)
                    return split(picked) + split(rest)
        return [indices]

    return OrbitPartition(split(tuple(units)))


def is_ddp_indecomposable(handle: GroupHandle, cap: int = DEFAULT_ORBIT_CAP) -> bool:
    """True iff the group admits no decomposition into factors with disjoint
    supports (equivalently, the brute-force partition has a single cell)."""
    if handle.orbit_structure.k <= 1:
        return True
    return len(brute_force_decompose(handle, cap).cells) == 1


def _direct_sum(parts: Sequence[Permutation], degree: int) -> Permutation:
    # parts placed on consecutive point ranges, identity beyond
    table: list[int] = []
    for g in parts:
        offset = len(table)
        table.extend(g.image(p) + offset for p in range(1, g.degree + 1))
    table.extend(range(len(table) + 1, degree + 1))
    return Permutation(table)


def make_subdirect(inner: GroupHandle, s: int, rng: random.Random,
                   budget: int = DEFAULT_RETRY_BUDGET) -> GroupHandle:
    """A random indecomposable subdirect product of s copies of a transitive
    group, each copy acting on its own shifted point range.

    Draws i uniform in {2..s} (i = 1 when s = 1), generates the group by i
    random elements of the s-fold product, and accepts iff the result is
    indecomposable and surjects onto every copy.  Retries up to ``budget``
    times before giving up.
    """
    d = inner.degree
    if inner.orbit_structure.k != 1 or len(inner.orbit_structure.orbit(1)) != d:
        raise ValueError("inner group must be transitive on its full point set")
    if s < 1:
        raise ValueError("s must be at least 1")
    degree = s * d
    target = inner.order
    blocks = [tuple(range(b * d + 1, (b + 1) * d + 1)) for b in range(s)]
    for _ in range(budget):
        i = 1 if s == 1 else rng.randint(2, s)
        gens = [_direct_sum([random_element(inner.chain, rng) for _ in range(s)], degree)
                for _ in range(i)]
        candidate = GroupHandle.from_generators(gens, degree)
        structure = candidate.orbit_structure
        if structure.k != s or any(structure.orbit(b + 1) != blocks[b] for b in range(s)):
            continue
        cache: dict = {}
        if any(restriction_order(candidate, (b,), cache) != target for b in range(1, s + 1)):
            continue
        if not is_ddp_indecomposable(candidate, cap=max(DEFAULT_ORBIT_CAP, s)):
            continue
        return candidate
    raise RetryBudgetExhausted(
        f"no acceptable subdirect product of {s} copies after {budget} attempts")


def random_ddp_group(spec: RandomInstanceSpec) -> tuple[GroupHandle, OrbitPartition]:
    """A random group with a known finest decomposition: the direct product
    of r indecomposable subdirect factors on disjoint point ranges,
    conjugated by a random permutation of the moved points.

    Returns the group and the ground-truth partition of its orbit indices
    (r cells of s orbits each, renumbered through the conjugation).
    Deterministic for a fixed spec, including the seed.
    """
    rng = random.Random(spec.seed)
    d = spec.inner_group.degree
    r, s = spec.r, spec.s
    degree = r * s * d
    gens: list[Permutation] = []
    factor_blocks: list[list[frozenset[int]]] = []
    for t in range(r):
        factor = make_subdirect(spec.inner_group, s, rng)
        offset = t * s * d
        for g in factor.generators:
            table = list(range(1, degree + 1))
            for p in range(1, s * d + 1):
                table[offset + p - 1] = g.image(p) + offset
            gens.append(Permutation(table))
        factor_blocks.append([frozenset(range(offset + b * d + 1, offset + (b + 1) * d + 1))
                              for b in range(s)])
    # every point is moved (the inner group is transitive of degree >= 2),
    # so the scrambling permutation is uniform over all points
    points = list(range(1, degree + 1))
    rng.shuffle(points)
    sigma = Permutation(points)
    conjugated = [g.conjugate(sigma) for g in gens]
    handle = GroupHandle.from_generators(conjugated, degree)

    image_blocks = {frozenset(sigma.image(p) for p in block): t
                    for t, blocks in enumerate(factor_blocks) for block in blocks}
    cells: dict[int, list[int]] = {}
    for idx in range(1, handle.orbit_structure.k + 1):
        orbit = frozenset(handle.orbit_structure.orbit(idx))
        t = image_blocks.get(orbit)
        if t is None:
            raise RuntimeError("orbit of the scrambled group does not match a factor block")
        cells.setdefault(t, []).append(idx)
    expected = OrbitPartition(list(cells.values()))
    return handle, expected


def decompositions_equivalent(a: DecompositionResult, b: DecompositionResult) -> EquivalenceReport:
    """Compare two decompositions by their families of factor supports."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    left = a.supports()
    right = b.supports()
    if left == right:
        return EquivalenceReport(True, left, right)
    only_left = left - right
    only_right = right - left
    mismatch = (f"{len(only_left)} support(s) only in left, "
                f"{len(only_right)} only in right")
    return EquivalenceReport(False, left, right, mismatch)
