"""Ground-truth machinery: brute-force finest decomposition, decomposition
verification, indecomposability testing and a random instance generator,
which decides each copy's surjectivity on the elements it draws for that
copy and builds a group only for a draw that passes.

The brute-force search follows the classic exponential recipe: try all
bipartitions of the orbit set in order of increasing size of the smaller
part, recurse into the halves of the first valid split, and declare a set
of orbits indecomposable when no bipartition is valid.  The
indecomposability test runs the same loop over the whole orbit set and
stops at the first valid split, since the search returns one cell exactly
when no bipartition of the whole set splits.

Every candidate split is decided by one membership criterion.  The group H
restricted to a union of orbits C is a subdirect product of its restrictions
A = H|_T and B = H|_{C\\T} to the two halves, and a subdirect product of
A x B equals A x B exactly when A x 1 is contained in it.  A x 1 is
generated by the generators of H|_C restricted to T, so the split holds iff
each of those restrictions lies in H|_C.  Only the generators that move both
sides need a test, since the others restrict to themselves or to the
identity.

A test sifts through the chain of one component, not of the whole node.
The orbits of C that one input generator moves are linked, and the classes
of these links are the node's components.  Each generator of H|_C acts
inside one component, so H|_C is the direct product of the restrictions
H|_K to its components K.  A generator g moving both sides acts inside one
component K, so g|_T is supported in K, and it lies in H|_C exactly when it
lies in H|_K.  H|_K depends on K alone, so one call builds each component's
exact chain once, from the input generators that move K restricted to K,
and every node and orbit pair with that component reuses it.  A node finds
its components on its first membership test, so a node whose generators
each act inside one side costs neither components nor a chain.

Each restriction is sifted once per component.  g|_T is g restricted to
the orbits of g in T, since g fixes every other point, so it depends only
on g and that orbit subset.  One call keeps the answer for each (component
K, generator g, orbit subset), and every later bipartition, node or pair
with that component reads it.  This is exact, since an element supported
in K lies in H|_C exactly when it lies in H|_K.  The pairs-first pass
asks the same question of each two-orbit restriction whose orbits some
generator moves together and are not yet glued.  Every other pair splits
without a test, and the glued units are the classes of the pairs that do
not split, so skipping those pairs changes no unit.
:func:`verify_decomposition` keeps the order argument (the cell restriction
orders multiply to |H|) on fresh chains, as a check independent of the
search.

The generator asks two questions of each draw: does each column of drawn
inner elements generate the inner group, and is the group of the draw's
direct sums indecomposable?  Each answer depends only on the group the
drawn set generates, and a small inner group yields the same sets again
and again (C2 s=2 r=500 draws 3 distinct columns for its 500 factors), so
one instance keeps a verdict per set of elements, columns and candidates
apart, and decides each set once.  The verdicts die with the instance, so
every instance, and every set-up timing, starts from none.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .decompose import OrbitPartition
from .perm import Permutation, _as_image
from .stabchain import (
    GroupHandle,
    StabilizerChain,
    build_chain,
    is_member,
    random_element,
    restriction_order,
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


def _components(profile) -> dict[int, frozenset[int]]:
    """Each orbit of a node's profile mapped to its component: the classes of
    the union-find that joins the orbits each generator moves."""
    component_of: dict[int, frozenset[int]] = {}
    for _, orbits in profile:
        merged = orbits.union(*(component_of[j] for j in orbits if j in component_of))
        component_of.update(dict.fromkeys(merged, merged))
    return component_of


def _component_chain(handle: GroupHandle, moved,
                     component: frozenset[int]) -> StabilizerChain:
    """The exact chain of H|_K for the orbit set K = ``component``, at the
    whole degree (the elements it tests keep the original points): the
    handle's own chain when K is every orbit, else built from the input
    generators that move K, restricted to K's points."""
    structure = handle.orbit_structure
    if len(component) == structure.k:
        return handle.chain
    support = sorted(p for j in component for p in structure.orbit(j))
    return build_chain([g.restrict(support) for g, orbits in moved if orbits & component],
                       handle.degree, support)


def _node(handle: GroupHandle, moved, key: frozenset[int], chains: dict, answers: dict):
    """The restriction of the group to the orbit subset ``key``: the input
    generators that move it, each with the orbits of ``key`` it moves, and a
    membership test ``member(g, part)``: whether g restricted to the orbits
    ``part``, some of the orbits of ``key`` that g moves, lies in the node
    group.

    The components are found on the first test.  A test sifts through the
    exact chain of H|_K for the component K that contains ``part``, which
    ``chains`` (one dict per search, keyed by orbit set) builds on first use
    and shares with every other node.  This is exact: the node group is the
    direct product of its restrictions to its components, so an element
    supported in K lies in it iff it lies in H|_K.  g|_part depends on g and
    ``part`` alone, so ``answers`` (one dict per search) keeps the answer
    for each (K, g, part), and each is sifted once per component."""
    profile = [(g, orbits & key) for g, orbits in moved if orbits & key]
    component_of = None

    def member(g: Permutation, part: frozenset[int]) -> bool:
        nonlocal component_of
        if component_of is None:
            component_of = _components(profile)
        component = component_of[next(iter(part))]
        question = (component, g, part)
        answer = answers.get(question)
        if answer is None:
            chain = chains.get(component)
            if chain is None:
                chain = chains[component] = _component_chain(handle, moved, component)
            orbit = handle.orbit_structure.orbit
            x = g.restrict([p for j in part for p in orbit(j)])
            answer = answers[question] = is_member(chain, x)
        return answer
    return profile, member


def _splits(profile, member, left: frozenset[int]) -> bool:
    """Whether the node group H|_C is H|_T x H|_{C\\T} for T the union of
    the orbits in ``left``: every generator g moving orbits on both sides,
    restricted to T (a union of orbits, so invariant), lies in H|_C.  The
    test passes the orbits of g in T, not the restricted element, so
    ``member`` can answer a restriction it has decided before."""
    return all(member(g, orbits & left) for g, orbits in profile
               if not orbits <= left and orbits & left)


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise ComputationTimeout("brute-force decomposition timed out")


def _first_split(current: tuple[tuple[int, ...], ...], profile, member,
                 deadline: float | None) -> tuple[int, ...] | None:
    """The positions in ``current`` of the smaller side of the first valid
    bipartition of its units, in order of increasing smaller side, or None
    when no bipartition splits the node."""
    for size in range(1, len(current) // 2 + 1):
        for chosen in combinations(range(len(current)), size):
            _check_deadline(deadline)
            # unordered bipartitions: when halves have equal unit
            # counts, pin unit 0 to the chosen side
            if 2 * size == len(current) and chosen[0] != 0:
                continue
            if _splits(profile, member, frozenset(j for idx in chosen for j in current[idx])):
                return chosen
    return None


def _split(current: tuple[tuple[int, ...], ...], handle: GroupHandle, moved, chains: dict,
           answers: dict, deadline: float | None) -> list[tuple[int, ...]]:
    """The finest cells of the union of the units in ``current``: the first
    valid bipartition of the units, with each side split again."""
    indices = tuple(sorted(x for unit in current for x in unit))
    if len(current) == 1:
        return [indices]
    # one node per recursion step; a component chain is read only when a
    # candidate bipartition leaves a generator moving both halves
    profile, member = _node(handle, moved, frozenset(indices), chains, answers)
    chosen = _first_split(current, profile, member, deadline)
    if chosen is None:
        return [indices]
    picked = tuple(current[idx] for idx in chosen)
    rest = tuple(u for idx, u in enumerate(current) if idx not in chosen)
    return (_split(picked, handle, moved, chains, answers, deadline)
            + _split(rest, handle, moved, chains, answers, deadline))


def _moved(handle: GroupHandle) -> list[tuple[Permutation, frozenset[int]]]:
    """Each input generator with the orbits it moves."""
    orbit_of_point = handle.orbit_structure.orbit_of_point
    return [(g, frozenset(orbit_of_point(p + 1) for p, q in enumerate(g._img) if p != q))
            for g in handle.generators]


def verify_decomposition(handle: GroupHandle, partition: OrbitPartition) -> bool:
    """True iff the partition's cells give a direct product decomposition:
    the per-cell restriction orders multiply to the group order."""
    k = handle.orbit_structure.k
    if partition.max_index != k:
        raise ValueError(f"partition does not cover orbit indices 1..{k}")
    product = 1
    for cell in partition.cells:
        product *= restriction_order(handle, cell)
        if product > handle.order:
            return False
    return product == handle.order


def brute_force_decompose(handle: GroupHandle, cap: int = DEFAULT_ORBIT_CAP,
                          pairs_first: bool = False,
                          deadline: float | None = None) -> OrbitPartition:
    """Finest partition by recursive bipartition search (the exponential
    baseline the fast algorithm is compared against).

    ``pairs_first`` enables the classic improvement of first gluing together
    orbit pairs whose 2-orbit restriction is indecomposable, decided by the
    same split test as a bipartition.  ``deadline`` is a time.monotonic()
    value after which ComputationTimeout is raised.
    """
    k = handle.orbit_structure.k
    if k > cap:
        raise OrbitCapExceeded(f"{k} orbits exceeds the configured cap {cap}")
    if k == 0:
        return OrbitPartition(())
    # a node keeps the generators that move it, and a split test sifts only
    # those moving both sides
    moved = _moved(handle)
    # the component chains of this search and the answers of its split
    # tests, keyed by (component, generator, orbit subset), shared by the
    # pairs pass and the recursion; nothing outlives the call
    chains: dict[frozenset[int], StabilizerChain] = {}
    answers: dict[tuple, bool] = {}

    # every orbit starts as a unit of its own; the pairs pass tests each pair
    # of orbits that some generator moves together and that lie in different
    # units, and glues the units of a pair whose restriction does not split.
    # Any other pair's restriction splits without a test (no generator moves
    # both orbits), and the glued units are the components of the graph of
    # non-splitting pairs, so those pairs glue nothing
    unit_of = {j: (j,) for j in range(1, k + 1)}
    if pairs_first:
        linked = {pair for _, orbits in moved for pair in combinations(sorted(orbits), 2)}
        for a, b in sorted(linked):
            if b in unit_of[a]:
                continue
            _check_deadline(deadline)
            if not _splits(*_node(handle, moved, frozenset((a, b)), chains, answers),
                           frozenset((a,))):
                glued = tuple(sorted({*unit_of[a], *unit_of[b]}))
                unit_of.update(dict.fromkeys(glued, glued))
    units = sorted(set(unit_of.values()))
    return OrbitPartition(_split(tuple(units), handle, moved, chains, answers, deadline))


def is_ddp_indecomposable(handle: GroupHandle) -> bool:
    """True iff the group admits no decomposition into factors with disjoint
    supports (equivalently, the brute-force partition has a single cell).
    Raises OrbitCapExceeded above ``DEFAULT_ORBIT_CAP`` orbits.

    The search stops at the first valid bipartition of the orbits, with no
    recursion into its halves and no chain for a smaller component: the
    brute-force partition has one cell exactly when no bipartition of the
    whole orbit set splits."""
    k = handle.orbit_structure.k
    if k <= 1:
        return True
    if k > DEFAULT_ORBIT_CAP:
        raise OrbitCapExceeded(f"{k} orbits exceeds the configured cap {DEFAULT_ORBIT_CAP}")
    profile, member = _node(handle, _moved(handle), frozenset(range(1, k + 1)), {}, {})
    return _first_split(tuple((j,) for j in range(1, k + 1)), profile, member, None) is None


def _direct_sum(parts: Sequence[Permutation], degree: int, offset: int = 0) -> Permutation:
    # parts placed on consecutive point ranges from offset + 1, identity
    # elsewhere, built as a 0-based image table
    table = list(range(offset))
    for g in parts:
        table.extend(map(len(table).__add__, g._img))
    table.extend(range(len(table), degree))
    return Permutation._make(_as_image(table))


def make_subdirect(inner: GroupHandle, s: int, rng: random.Random,
                   budget: int = DEFAULT_RETRY_BUDGET, *,
                   columns: dict[frozenset[Permutation], bool] | None = None,
                   candidates: dict[frozenset[Permutation], bool] | None = None
                   ) -> GroupHandle:
    """A random indecomposable subdirect product of s copies of a transitive
    group, each copy acting on its own shifted point range.

    Draws i uniform in {2..s} (i = 1 when s = 1) and i random elements of
    the s-fold product, as rows of s inner elements.  The projection onto
    copy b is generated by the column-b elements, so surjectivity onto
    every copy is decided on the drawn elements, with no handle built.  A
    draw that surjects onto every copy acts transitively on each copy, so
    its orbits are exactly the copies, in order.  Only such a draw becomes
    a group, accepted iff it is indecomposable.  Retries up to ``budget``
    times before giving up.  Acceptance runs the brute-force oracle, whose
    cost grows exponentially with s, so s above ``DEFAULT_ORBIT_CAP`` raises
    OrbitCapExceeded before any candidate is drawn.

    Each verdict depends only on the group the drawn elements generate, so
    ``columns`` (keyed by the set of a column's elements: does it generate
    the inner group?) and ``candidates`` (keyed by the set of a draw's
    direct sums: is their group indecomposable?) keep it for every later
    draw that repeats the set.  A repeated rejection builds no handle.  The
    two dicts stay apart, since at s = 1 a column and a candidate are the
    same set; by default each call keeps its own, and a caller that passes
    them decides how long they live.  The draws and the decisions are the
    same with or without them.
    """
    d = inner.degree
    if inner.orbit_structure.k != 1 or len(inner.orbit_structure.orbit(1)) != d:
        raise ValueError("inner group must be transitive on its full point set")
    if s < 1:
        raise ValueError("s must be at least 1")
    if s > DEFAULT_ORBIT_CAP:
        raise OrbitCapExceeded(f"s={s} copies exceed the orbit cap {DEFAULT_ORBIT_CAP}: "
                               "accepting a subdirect product runs the brute-force oracle")
    degree = s * d
    target = inner.order
    columns = {} if columns is None else columns
    candidates = {} if candidates is None else candidates

    def generates(column) -> bool:
        key = frozenset(column)
        verdict = columns.get(key)
        if verdict is None:
            verdict = columns[key] = build_chain(column, d).order == target
        return verdict

    for _ in range(budget):
        i = 1 if s == 1 else rng.randint(2, s)
        rows = [[random_element(inner.chain, rng) for _ in range(s)] for _ in range(i)]
        if not all(map(generates, zip(*rows))):
            continue
        sums = [_direct_sum(row, degree) for row in rows]
        key = frozenset(sums)
        verdict = candidates.get(key)
        if verdict is False:
            continue
        candidate = GroupHandle.from_generators(sums, degree)
        if verdict is None:
            verdict = candidates[key] = is_ddp_indecomposable(candidate)
        if verdict:
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

    The r ``make_subdirect`` calls share one dict of column verdicts and one
    of candidate verdicts, so a set of elements drawn again for another
    factor is decided once.  Both dicts die with the call: a repeated call
    with the same spec decides every set afresh and returns the same group.
    """
    rng = random.Random(spec.seed)
    d = spec.inner_group.degree
    r, s = spec.r, spec.s
    degree = r * s * d
    columns: dict[frozenset[Permutation], bool] = {}
    candidates: dict[frozenset[Permutation], bool] = {}
    gens: list[Permutation] = []
    for t in range(r):
        factor = make_subdirect(spec.inner_group, s, rng,
                                columns=columns, candidates=candidates)
        gens.extend(_direct_sum([g], degree, t * s * d) for g in factor.generators)
    # every point is moved (the inner group is transitive of degree >= 2),
    # so the scrambling permutation is uniform over all points
    points = list(range(1, degree + 1))
    rng.shuffle(points)
    sigma = Permutation(points)
    sigma_inv = sigma.inverse()
    handle = GroupHandle.from_generators([sigma_inv * g * sigma for g in gens], degree)

    # each orbit is sigma's image of a block of factor t, on points t*s*d+1..(t+1)*s*d
    cells: dict[int, list[int]] = {}
    for idx, orbit in enumerate(handle.orbit_structure.orbits, start=1):
        cells.setdefault((sigma_inv.image(orbit[0]) - 1) // (s * d), []).append(idx)
    return handle, OrbitPartition(list(cells.values()))
