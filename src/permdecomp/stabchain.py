"""Orbits, deterministic Schreier-Sims stabilizer chains, sifting and
membership testing.

The chain builder takes a *prescribed candidate sequence* of base points and
only ever creates levels for candidates in that order.  This is what makes
orbit-ordered bases possible: with the candidate sequence equal to the
concatenation of the group's orbits (each sorted ascending, orbits ordered
by smallest element), the resulting base is grouped by orbit, so each orbit
prefix's pointwise stabilizer appears as a chain level.  Choosing base
points on demand cannot guarantee this: a residue discovered late may move
an earlier orbit after later-orbit base points already exist.  Redundant
candidates (whose basic orbit stays a singleton) are dropped from the
published chain, so bases are always non-redundant.

After construction a chain is immutable (it computes its levels' inverse
tables on the first sift, and its representatives' operands on the first
draw or enumeration, always to the same values); orders are plain
Python ints and therefore arbitrary precision.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from itertools import compress
from operator import itemgetter
from typing import Iterable, Sequence

from .perm import (_MAX_BYTES_DEGREE, Permutation, _as_image, _identity_image,
                   _inverse_operand, _moved_mask, _operand, _padded, _relabel)


class OrbitStructure:
    """The orbits of a group, in processing order.

    Only orbits of size >= 2 are listed; points fixed by the whole group are
    reported separately.  :func:`compute_orbits` orders them by smallest
    element.  The finest partition does not depend on the order; another
    order is reached by relabelling the points.
    """

    __slots__ = ("degree", "orbits", "fixed_points", "_orbit_of")

    def __init__(self, degree: int, orbits: Sequence[Sequence[int]], fixed_points: Iterable[int]):
        self.degree = degree
        self.orbits = tuple(tuple(sorted(o)) for o in orbits)
        self.fixed_points = tuple(sorted(fixed_points))
        orbit_of = {}
        for idx, orbit in enumerate(self.orbits, start=1):
            for p in orbit:
                orbit_of[p] = idx
        self._orbit_of = orbit_of

    @property
    def k(self) -> int:
        return len(self.orbits)

    def orbit(self, i: int) -> tuple[int, ...]:
        """Points of the i-th orbit (1-based index)."""
        return self.orbits[i - 1]

    def orbit_of_point(self, p: int) -> int | None:
        """1-based index of the orbit containing p, or None if p is fixed."""
        return self._orbit_of.get(p)

    def support(self) -> frozenset[int]:
        return frozenset(self._orbit_of)

    def __repr__(self) -> str:
        return f"OrbitStructure(degree={self.degree}, orbits={self.orbits}, fixed={self.fixed_points})"


def compute_orbits(generators: Sequence[Permutation], degree: int) -> OrbitStructure:
    """Orbits of the group generated by ``generators``, ordered by smallest
    element; fixed points are listed separately."""
    for g in generators:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    seen = [False] * (degree + 1)
    orbits = []
    fixed = []
    for start in range(1, degree + 1):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        frontier = [start]
        while frontier:
            p = frontier.pop()
            for g in generators:
                q = g._img[p - 1] + 1
                if not seen[q]:
                    seen[q] = True
                    orbit.append(q)
                    frontier.append(q)
        if len(orbit) == 1:
            fixed.append(start)
        else:
            orbits.append(sorted(orbit))
    return OrbitStructure(degree, orbits, fixed)


class TransversalLevel:
    """One level of a stabilizer chain.

    ``coset_reps`` maps each point q of the basic orbit to a representative
    r with base_point^r = q; the base point itself maps to the identity.
    """

    __slots__ = ("base_point", "coset_reps", "level_generators")

    def __init__(self, base_point: int, coset_reps: dict[int, Permutation],
                 level_generators: Sequence[Permutation] = ()):
        if coset_reps.get(base_point) is None or not coset_reps[base_point].is_identity():
            raise ValueError("coset_reps must map the base point to the identity")
        for q, r in coset_reps.items():
            if r.image(base_point) != q:
                raise ValueError(f"representative for {q} maps base point to {r.image(base_point)}")
        self.base_point = base_point
        self.coset_reps = dict(coset_reps)
        self.level_generators = tuple(level_generators)

    def __repr__(self) -> str:
        return f"TransversalLevel(base_point={self.base_point}, orbit_size={len(self.coset_reps)})"


class StabilizerChain:
    """A complete stabilizer chain: base, transversals, strong generators
    and the group order."""

    __slots__ = ("degree", "levels", "strong_generators", "order", "_plan", "_reps")

    def __init__(self, degree: int, levels: Sequence[TransversalLevel],
                 strong_generators: Sequence[Permutation]):
        self.degree = degree
        self.levels = tuple(levels)
        self.strong_generators = tuple(strong_generators)
        order = 1
        for level in self.levels:
            order *= len(level.coset_reps)
        self.order = order
        self._plan = None
        self._reps = None

    def _sift_plan(self) -> list[tuple[int, dict[int, object]]]:
        # each level's 0-based base point, and q - 1 -> the table of the
        # inverse of q's representative, for sift: computed on the first
        # sift, so a chain that is only counted never computes them
        if self._plan is None:
            self._plan = [(level.base_point - 1, {q - 1: _inverse_operand(r._img)
                                                  for q, r in level.coset_reps.items()})
                          for level in self.levels]
        return self._plan

    def _rep_operands(self) -> list[list[object]]:
        # each level's coset representatives as right operands, in the
        # order of coset_reps, for random_element and apps.iter_elements:
        # computed on the first read, like the sift plan
        if self._reps is None:
            self._reps = [[_operand(r._img) for r in level.coset_reps.values()]
                          for level in self.levels]
        return self._reps

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(level.base_point for level in self.levels)

    def __repr__(self) -> str:
        return f"StabilizerChain(degree={self.degree}, base={self.base}, order={self.order})"


class _Node:
    # builder-internal level for one candidate position, in the sweep's
    # coordinates (see build_chain): its images are those of the first m
    # positions, or from t0 on of the first m - t0, and base is its position
    __slots__ = ("gens", "tbls", "imgs", "masks", "moved", "reps", "srep", "inv",
                 "pts", "exp_pts", "exp_gens", "pending")

    def __init__(self, base: int, identity: Permutation, ident, ident_inv):
        self.gens: list[Permutation] = []  # level generators, in the original points
        self.tbls: list[object] = []      # their operands here, in step with gens
        self.imgs: list[object] = []      # and their images here, unpadded
        # below t0 only: each generator's _moved_mask, and the union of
        # those of the generators that created representatives
        self.masks: list[int] = []
        self.moved = 0
        # orbit point (a position) -> its representative, its image here, and
        # the inverse's operand here
        self.reps: dict[int, Permutation] = {base: identity}
        self.srep: dict[int, object] = {base: ident}
        self.inv: dict[int, object] = {base: ident_inv}
        self.pts = [base]                 # orbit points in discovery order
        self.exp_pts = 0                  # orbit expansion frontier: pairs with
        self.exp_gens = 0                 # p_idx < exp_pts, g_idx < exp_gens done
        self.pending: list = []           # Schreier pairs (point, operand, image)


def _dedup_generators(generators: Iterable[Permutation]) -> list[Permutation]:
    out = []
    seen = set()
    for g in generators:
        if g.is_identity() or g in seen:
            continue
        seen.add(g)
        out.append(g)
    return out


def _components(images: Sequence) -> list[tuple[int, list[int]]] | None:
    """The support components of the raw images ``images``: the classes of
    the union-find that joins two images moving a common index, each as
    the mask of the indices it moves (see :func:`perm._moved_mask`) and its
    images' positions in ``images``.  None when they form one class."""
    parts: list[tuple[int, list[int]]] = []
    for i, img in enumerate(images):
        mask = _moved_mask(img)
        members = [i]
        rest = []
        for part in parts:
            if part[0] & mask:
                mask |= part[0]
                members += part[1]
            else:
                rest.append(part)
        rest.append((mask, members))
        parts = rest
    return parts if len(parts) > 1 else None


# the fewest candidates at which build_chain splits (see its docstring)
_SPLIT_CANDIDATES = 128


def build_chain(generators: Sequence[Permutation], degree: int,
                candidates: Sequence[int] | None = None) -> StabilizerChain:
    """Deterministic Schreier-Sims over a prescribed base-candidate sequence.

    ``candidates`` defaults to 1..degree, which realizes the "smallest moved
    point" base policy.  Passing the concatenation of the group's orbits
    gives an orbit-ordered base (see :func:`orbit_ordered_candidates`).
    Candidates must be distinct points of 1..degree and cover the support
    of the group; ``ValueError`` names an out-of-range candidate, or the
    smallest moved point outside the candidates.

    The sweep runs on candidate positions.  With sigma sending candidate i
    to position m-1-i and the other points after the m candidates, it
    carries each element x as c(x) = sigma^-1 * x * sigma, restricted to
    positions 0..m-1: position m-1-i goes to position m-1-j when x sends
    candidate i to candidate j.  The cover check, run on the whole c(x) of
    each input generator, proves that positions m and above are fixed by
    every element, so the restriction loses nothing.  Level t's base point
    is position m-1-t, and the next candidate an element moves is the last
    position where c(x) differs from the identity, found by slice
    comparisons, so sifting composes only at moved candidates and skips in
    C the fixed ones, which are most of them.

    Let t0 = max(0, m - 256) and k = m - t0.  A generator or residue joins
    only the levels up to the first candidate it moves, so each level's
    generators, and the representatives built from them, fix the positions
    of the levels before it.  A Schreier generator of level t also fixes
    position m-1-t, and each step of its strip keeps the positions it has
    passed fixed.  So every element the sweep handles at a level t >= t0
    fixes positions m-t..m-1, and with them k..m-1: it maps positions
    0..k-1 among themselves, and its image there is the first k entries of
    its image of all m positions, with no offset.  That is a permutation of
    at most 256 indices, which ``perm`` stores as ``bytes`` and composes
    with one ``bytes.translate``.  Levels below t0 hold images of all m
    positions; a strip cuts its siftee to its first k entries once, when it
    passes t0, and a residue leaves the sweep padded with fixed points.  Up
    to 256 candidates, t0 = 0 and every level has the one form, whatever
    the degree.

    The input generators fall into support components: the classes of the
    union-find that joins two generators moving a common position.  With
    two or more, the sweep runs once per component, on that component's
    positions relabelled 0..n-1 in order, so a component of at most 256
    positions composes ``bytes`` at any degree and only one of more than
    256 reaches the tuple levels.  Each component costs a relabelling, a
    sweep's set-up and its share of the merge, so the split has two gates:

    - at least 128 candidates (``_SPLIT_CANDIDATES``).  On plain inputs of
      32 to 100 candidates in components of 4 to 8 points the split was up
      to 37% slower (2-core Xeon), while from 128 candidates on it won on
      every plain shape measured;
    - no component holding more than half of them.  Such a component holds
      most generators and leaves few inert pairs to save, so the split
      pays its costs for the small components alone.  C2 s=2 r=50 after
      2 * |gens| Nielsen moves falls into components of 196 and 4 points
      and built in 5.4 ms refused, 6.2 ms split (best of 15, 2-core Xeon),
      0.4 ms of it relabelling.  The rule is rough: after |gens| moves it
      falls into 13 components, the largest of 140 points, and C3 s=2
      r=42 into 9, the largest of 192, and there the split won (3.4 ms
      against 4.2, and 4.1 against 4.6).

    The results merge into the chain the one sweep over all positions
    builds:

    - its levels are the components' levels, in candidate order;
    - its strong generators are the input generators in input order, then
      the residues by the floor at which each was found, highest level
      first, and in their component's order within a floor.  A residue's
      floor is the lowest level at which its component has found a
      residue so far;
    - each level's generators are the strong generators whose levels
      contain it: an input generator joins levels 0..h, h the level of the
      last candidate it moves, and a residue found at level t joins
      levels t+1..j, j the level of the last candidate it moves, levels of
      other components in between included.

    This is exact.  A generator s of another component B fixes every
    position of a component A and commutes with A's representatives, so on
    A's levels it adds no orbit point, and each of its pairs there has
    Schreier generator s, which the one sweep skips, or below t0 never
    queues.  While the one sweep's lowest level reached is a level f of A,
    every level above f is complete, and the levels of other components
    gain only such inert generators; so every residue found meanwhile is
    A's, and found in A's own order.  Each element keeps its identity: a
    representative is the same product of the same generators, built in
    the original points in either sweep.

    The published chain is in the original points: each level's
    representatives are built next to their sweep images, a residue is
    mapped back only when it joins the strong generators, and the chain
    computes the inverse tables that :func:`sift` reads from the levels'
    representatives on the first sift.
    """
    gens = _dedup_generators(generators)
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    candidates = list(range(1, degree + 1) if candidates is None else candidates)
    if candidates and (min(candidates) < 1 or max(candidates) > degree):
        bad = next(c for c in candidates if not 1 <= c <= degree)
        raise ValueError(f"base candidate {bad} out of range 1..{degree}")
    chosen = set(candidates)
    if len(chosen) != len(candidates):
        raise ValueError("duplicate base candidates")
    m = len(candidates)
    compose_n = Permutation._composer(degree)
    # sigma^-1 lists the candidates last to first, then the other points
    rest = [p for p in range(1, degree + 1) if p not in chosen]
    sigma_inv = Permutation._make(_as_image([p - 1 for p in candidates[::-1] + rest]))
    sigma = sigma_inv.inverse()
    to_point, to_position = sigma_inv._img, _operand(sigma._img)
    images = []
    fixed = _identity_image(degree)[m:]
    for g in gens:
        c = compose_n(compose_n(to_point, _operand(g._img)), to_position)
        if c[m:] != fixed:
            p = min(set().union(*(h.support() for h in gens)) - chosen)
            raise ValueError(f"candidates do not cover moved point {p}")
        images.append(_as_image(c[:m]))
    if len(gens) > 1 and m >= _SPLIT_CANDIDATES:
        parts = _components(images)
        if parts is not None and 2 * max(mask.bit_count() for mask, _ in parts) <= m:
            return _merged(gens, images, parts, candidates, to_point, degree)

    from_position = _operand(to_point)

    def back(c):
        # a residue's image of the m positions, in the original points
        c = compose_n(sigma._img, _operand(_padded(c, degree)))
        return Permutation._make(compose_n(c, from_position))

    nodes, strong, _ = _sweep(gens, images, m, degree, back)
    return StabilizerChain(degree, [
        TransversalLevel(candidates[t], {candidates[m - 1 - q]: r for q, r in node.reps.items()},
                         node.gens)
        for t, node in enumerate(nodes) if len(node.pts) > 1], strong)


def _merged(gens: list[Permutation], images: list, parts: list[tuple[int, list[int]]],
            candidates: list[int], to_point, degree: int) -> StabilizerChain:
    """:func:`build_chain`'s chain from one sweep per support component in
    ``parts`` (see :func:`_components`), merged into the chain of the one
    sweep over all m candidate positions; ``images`` are the generators'
    images on those positions and ``to_point`` sends a position to its
    0-based point."""
    m = len(candidates)
    # one sweep per component, on its positions in order; level t of a
    # component of n positions is level m-1-positions[n-1-t] of the chain.
    # order lists every point, each component's in one block, and lift
    # gathers an image of the points from a row in that order
    blocks = [list(compress(range(m), mask.to_bytes(m, "little"))) for mask, _ in parts]
    order = [to_point[q] for positions in blocks for q in positions]
    order = (*order, *sorted(set(range(degree)).difference(order)))
    lift = itemgetter(*_inverse_operand(_as_image(order))[:degree])
    levels = []
    last = [0] * len(gens)  # each input generator's last level
    residues = []           # (floor, residue, first level, last level)
    start = 0
    for (_, members), positions in zip(parts, blocks):
        members.sort()
        n = len(positions)
        level_of = [m - 1 - q for q in reversed(positions)]
        points = order[start:start + n]

        def back(c, start=start, points=points):
            # a residue's image of the component's positions, in the
            # original points: its block of the row replaced
            row = order[:start] + itemgetter(*c)(points) + order[start + len(c):]
            return Permutation._make(_as_image(lift(row)))

        start += n
        own = [gens[i] for i in members]
        nodes, found, spans = _sweep(
            own, _relabel(map(Permutation._make, (images[i] for i in members)),
                          [q + 1 for q in positions]),
            n, degree, back)
        for t, node in enumerate(nodes):
            if len(node.pts) > 1:
                levels.append((level_of[t], {points[q] + 1: r for q, r in node.reps.items()}))
        for i, (_, j) in zip(members, spans):
            last[i] = level_of[j]
        floor = m
        for x, (lo, j) in zip(found[len(own):], spans[len(own):]):
            floor = min(floor, level_of[lo - 1])
            residues.append((floor, x, level_of[lo - 1] + 1, level_of[j]))
    residues.sort(key=lambda r: -r[0])  # stable: each floor is one component's
    strong = gens + [x for _, x, _, _ in residues]
    levels.sort(key=lambda level: level[0])
    at = [t for t, _ in levels]
    level_gens = [[] for _ in levels]
    spans = [(0, j) for j in last] + [(lo, hi) for _, _, lo, hi in residues]
    for x, (lo, hi) in zip(strong, spans):
        for here in level_gens[bisect_left(at, lo):bisect_right(at, hi)]:
            here.append(x)
    return StabilizerChain(degree, [TransversalLevel(candidates[t], reps, level_gens[i])
                                    for i, (t, reps) in enumerate(levels)], strong)


def _sweep(gens: list[Permutation], images: list, m: int, degree: int,
           back) -> tuple[list[_Node], list[Permutation], list[tuple[int, int]]]:
    """:func:`build_chain`'s sweep over the m positions of ``images``, the
    input generators' images there, which the cover check has made
    permutations of the m positions.  ``back`` maps a residue's image of
    the m positions to its ``Permutation`` of degree ``degree``.  Returns
    the levels (level t's base point is position m-1-t), the strong
    generators, and the levels lo..hi that each strong generator joined."""
    t0 = max(0, m - _MAX_BYTES_DEGREE)
    k = m - t0
    identity = Permutation._make(_identity_image(degree))
    compose_n = Permutation._composer(degree)
    ident_low, ident_high = _identity_image(m), _identity_image(k)
    compose_low, compose_high = Permutation._composer(m), Permutation._composer(k)
    low_inv, high_inv = _operand(ident_low), _operand(ident_high)
    nodes = ([_Node(m - 1 - t, identity, ident_low, low_inv) for t in range(t0)]
             + [_Node(m - 1 - t, identity, ident_high, high_inv) for t in range(t0, m)])
    at = nodes[::-1]  # at[p] is the level whose base point is position p
    strong: list[Permutation] = []
    spans: list[tuple[int, int]] = []

    def last_moved(v, p: int, lo: int = 0, ident=ident_high) -> int:
        # the last index in [lo, p] where v differs from the identity, else
        # lo - 1; the binary search keeps a differing index inside [lo, hi)
        hi = p + 1
        if v[lo:hi] == ident[lo:hi]:
            return lo - 1
        if v[p] != p:
            return p
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if v[mid:hi] == ident[mid:hi]:
                hi = mid
            else:
                lo = mid
        return lo

    def attach(x: Permutation, c, lo: int, hi: int) -> None:
        # x joins the strong generators and levels lo..hi, where c = c(x) on
        # all m positions and hi is the level of the last position it moves
        strong.append(x)
        spans.append((lo, hi))
        if lo < t0:
            tbl = _operand(c)
            mask = _moved_mask(c)
            for node in nodes[lo:min(hi + 1, t0)]:
                node.gens.append(x)
                node.tbls.append(tbl)
                node.imgs.append(c)
                node.masks.append(mask)
        if hi >= t0:
            img = bytes(c[:k]) if t0 else c
            tbl = _operand(img)
            for node in nodes[max(lo, t0):hi + 1]:
                node.gens.append(x)
                node.tbls.append(tbl)
                node.imgs.append(img)

    def extend_orbit(t: int) -> None:
        # grow the basic orbit in place (discovery order is stable, so the
        # frontier stays valid) and queue its new Schreier pairs.  A
        # singleton orbit queues none: its generators fix the point and join
        # level t+1 too, so the level inherits completeness from level t+1.
        # Below t0, a pair (p, s) is queued only when s's mask meets moved.
        # Each representative is a word in the generators whose masks make
        # up moved, so its support lies in moved, and so does the base
        # point, which the orbit's first step moves.  An s that misses moved
        # fixes every orbit point and commutes with every representative, so
        # its Schreier generator u_p * s * u_p^-1 is s: a pair the pass's
        # equality test would skip, but only after two m-wide products.  The
        # bytes levels queue every pair: there a pair costs two
        # bytes.translate calls, less than the masks would
        node = nodes[t]
        pts, gens_local = node.pts, node.gens
        ep, eg = node.exp_pts, node.exp_gens
        ngens = len(gens_local)
        reps, srep, inv, tbls = node.reps, node.srep, node.inv, node.tbls
        low = t < t0
        compose = compose_low if low else compose_high
        # old points with new generators, then every point from the old
        # frontier on (including ones appended just below) with all gens
        i = 0
        while i < len(pts):
            p = pts[i]
            for gi in range(eg if i < ep else 0, ngens):
                tb = tbls[gi]
                q = tb[p]
                if q not in reps:
                    reps[q] = Permutation._make(compose_n(reps[p]._img, _operand(gens_local[gi]._img)))
                    img = srep[q] = compose(srep[p], tb)
                    inv[q] = _inverse_operand(img)
                    pts.append(q)
                    if low:
                        node.moved |= node.masks[gi]
            i += 1
        node.exp_pts = len(pts)
        node.exp_gens = ngens
        if len(pts) > 1:  # new points with all gens, then old ones with new gens
            pairs = list(zip(tbls, node.imgs))
            new, old = (pairs if len(pts) > ep else []), pairs[eg:]
            if low:
                moved = node.moved
                new = [pair for pair, mask in zip(new, node.masks) if mask & moved]
                old = [pair for pair, mask in zip(old, node.masks[eg:]) if mask & moved]
            node.pending = ([(p, tb, s) for p in pts[ep:] for tb, s in new]
                            + [(p, tb, s) for p in pts[:ep] for tb, s in old])

    def strip(v, t: int) -> tuple[object, int]:
        # sift v = c(x), in level t's form, through levels t+1..m-1 (positions
        # m-2-t down to 0), for an x fixing positions m-1-t..m-1
        p = m - 2 - t
        if t < t0:
            while (p := last_moved(v, p, k, ident_low)) >= k:
                tbl = at[p].inv.get(v[p])
                if tbl is None:
                    return v, m - 1 - p
                v = compose_low(v, tbl)
                p -= 1
            v = bytes(v[:k])
        while (p := last_moved(v, p)) >= 0:
            tbl = at[p].inv.get(v[p])
            if tbl is None:
                break
            v = compose_high(v, tbl)
            p -= 1
        return v, m - 1 - p

    for g, c in zip(gens, images):
        attach(g, c, 0, m - 1 - last_moved(c, m - 1, 0, ident_low))

    # verify levels bottom-up.  A level with no pending pairs is extended
    # first.  When a pair of level t yields a residue, the residue joins
    # levels t+1..j, level t keeps its pending pairs from that pair on, and
    # the sweep jumps to j and re-descends.  Each pair is verified once;
    # checking a verified pair again could add nothing, because
    # - when level t is processed, every level after it is complete;
    # - a residue found at t joins only levels t+1..j, so t's generators
    #   and orbit do not change while its pairs wait, and the levels
    #   re-descended get no other new generators before they are processed;
    # - an orbit point keeps its representative and inverse table once it
    #   is added, so a pair that sifted to the identity would take the same
    #   path again and add nothing;
    # - a pair (p, s) whose Schreier generator equals s is verified without
    #   a strip: s fixes level t's base point, since the Schreier generator
    #   does, so the last position s moves is below it and attach put s on
    #   level t+1 too.  That level is complete, so the strip would return
    #   j == m, and the chain is the same pair for pair;
    # - below t0, a pair whose s misses the level's moved set is never
    #   queued: its Schreier generator is s (see extend_orbit);
    # - the pair that produced the residue is not verified yet: it is
    #   checked again on resume, through the levels the residue joined.
    # The re-descent passes each visited level whose orbit is still a single
    # point (exp_pts == 1), and marks its generators as seen: it gained only
    # generators fixing its base point, since one that moves the base point
    # joins the level as its last and the sweep jumps there at once, so
    # extending it would add no point and queue no pair.
    t = m - 1
    while t >= 0:
        node = nodes[t]
        if not node.pending:
            extend_orbit(t)
        pending, srep, inv = node.pending, node.srep, node.inv
        compose = compose_low if t < t0 else compose_high
        for i, (p, tb, s) in enumerate(pending):
            q = tb[p]
            prod = compose(srep[p], tb)
            if prod == srep[q]:  # every tree edge lands here
                continue
            sg = compose(prod, inv[q])
            if sg == s:
                continue
            res, j = strip(sg, t)
            if j == m:  # fixes every candidate, which cover the support
                continue
            # back to all m positions, then to the original points
            c = _padded(res, m)
            attach(back(c), c, t + 1, j)
            node.pending = pending[i:]
            t = j
            break
        else:
            node.pending = []
            t -= 1
            while t >= 0 and nodes[t].exp_pts == 1:  # a visited singleton
                nodes[t].exp_gens = len(nodes[t].gens)
                t -= 1

    return nodes, strong, spans


def orbit_ordered_candidates(structure: OrbitStructure) -> list[int]:
    """Base candidates realizing an orbit-ordered base: the concatenation of
    the orbits in processing order, each sorted ascending."""
    out = []
    for orbit in structure.orbits:
        out.extend(orbit)
    return out


def sift(chain: StabilizerChain, g: Permutation, start_level: int = 1) -> tuple[Permutation, int]:
    """Sift g through chain levels start_level..m.

    Returns ``(siftee, stop_level)``.  The siftee fixes the base points of
    levels start_level..stop_level-1 and satisfies g = siftee * h for some h
    in the level-start_level group.  ``stop_level == m + 1`` means the whole
    (partial) chain was consumed; otherwise the siftee's image of the
    stop-level base point lies outside that level's basic orbit.
    """
    if g.degree != chain.degree:
        raise ValueError(f"degree mismatch: {g.degree} vs {chain.degree}")
    m = len(chain.levels)
    if not 1 <= start_level <= m + 1:
        raise ValueError(f"start_level {start_level} out of range 1..{m + 1}")
    compose = Permutation._composer(chain.degree)
    img = g._img
    for t, (b, tables) in enumerate(chain._sift_plan()[start_level - 1:], start=start_level):
        q = img[b]
        if q != b:
            tbl = tables.get(q)
            if tbl is None:
                return Permutation._make(img), t
            img = compose(img, tbl)
    return Permutation._make(img), m + 1


def is_member(chain: StabilizerChain, g: Permutation) -> bool:
    """Membership test by sifting from the top of the chain."""
    if g.degree != chain.degree:
        return False
    siftee, stop = sift(chain, g)
    return stop == len(chain.levels) + 1 and siftee.is_identity()


def _sift_failure(chain: StabilizerChain, x: Permutation, start_level: int = 1) -> str | None:
    # None when x sifts to the identity from start_level, else where it stops
    siftee, stop = sift(chain, x, start_level)
    if stop <= len(chain.levels):
        return f"leaves the basic orbit of level {stop}"
    if not siftee.is_identity():
        return f"sifts to a non-identity element after level {stop - 1}"
    return None


def audit_chain(chain: StabilizerChain, generators: Sequence[Permutation]) -> str | None:
    """Check that ``chain`` is a complete stabilizer chain of the group
    generated by ``generators``.  Returns None when every law holds, else a
    one-line description of the first law that fails, naming the level:

    1. each generator sifts to the identity;
    2. each level's generators are strong generators and fix the base
       points of the earlier levels;
    3. each level's basic orbit (the keys of ``coset_reps``) is exactly the
       orbit of its base point under the level's generators, and the
       inverse tables that :func:`sift` reads are those of the
       representatives;
    4. each Schreier generator u_q * s * u_{q^s}^-1 of a level sifts to the
       identity through the levels below.  Equal elements sift alike, so
       each distinct one is sifted once per level.  A level generator that
       moves no point its level's representatives move is its own
       Schreier generator at every point, so it is formed at the first
       point only.  The products are formed on raw images, the inverses'
       from the tables that law 3 has checked, and only a Schreier
       generator sifted becomes a ``Permutation``.

    By Schreier's lemma (Seress 2003, ch. 4), laws 3 and 4 make each level's
    group the product of the next level's group and the level's transversal,
    from the last level up, and law 1 puts the group inside the first
    level's.  This presumes what :func:`build_chain` gives by construction
    and no law can test: each representative is a product of its level's
    generators, each level's generators lie in the group of the level above,
    and the first level's lie in the group.  Then the chain's order is the
    group's order and :func:`sift` decides membership.  The audit reads only
    :mod:`~permdecomp.perm` and :func:`sift`, never the builder's sweep or
    the walk.
    """
    for i, g in enumerate(generators, start=1):
        failure = _sift_failure(chain, g)
        if failure is not None:
            return f"input generator {i} {failure}"
    base, plan = chain.base, chain._sift_plan()
    compose = Permutation._composer(chain.degree)
    # the points each strong generator moves, and the base points of the
    # levels before level t (byte p - 1 is 1 for point p)
    masks = {x: _moved_mask(x._img) for x in chain.strong_generators}
    earlier = 0
    for t, level in enumerate(chain.levels, start=1):
        b = level.base_point
        gens = level.level_generators
        for i, s in enumerate(gens, start=1):
            if s not in masks:
                return f"level {t}: generator {i} is not a strong generator"
            if masks[s] & earlier:
                j, p = next((j, p) for j, p in enumerate(base, start=1) if s.image(p) != p)
                return f"level {t}: generator {i} moves base point {p} of level {j}"
        earlier |= 1 << 8 * (b - 1)
        orbit = {b}
        frontier = [b]
        while frontier:
            p = frontier.pop()
            for s in gens:
                q = s.image(p)
                if q not in orbit:
                    orbit.add(q)
                    frontier.append(q)
        reps = level.coset_reps
        if orbit != reps.keys():
            missing = sorted(orbit - reps.keys())
            if missing:
                return f"level {t}: transversal misses point {missing[0]} of the orbit of {b}"
            extra = min(reps.keys() - orbit)
            return f"level {t}: transversal point {extra} is not in the orbit of {b}"
        tables = plan[t - 1][1]
        if tables != {q - 1: _operand(u.inverse()._img) for q, u in reps.items()}:
            return f"level {t}: the inverse tables are not those of the representatives"
        images = {q - 1: u._img for q, u in reps.items()}
        pairs = [(i, _operand(s._img)) for i, s in enumerate(gens, start=1)]
        # a generator that moves no point a representative moves fixes the
        # orbit and commutes with every representative: after the first
        # point, its Schreier generator is one already sifted
        moved = 0
        for img in images.values():
            moved |= _moved_mask(img)
        live = [pair for pair, s in zip(pairs, gens) if masks[s] & moved]
        sifted = set()  # equal Schreier generators sift alike: each once
        for q, u in reps.items():
            for i, tbl in pairs:
                us = compose(u._img, tbl)
                target = us[b - 1]
                if us == images[target]:
                    continue
                schreier = compose(us, tables[target])
                if schreier in sifted:
                    continue
                sifted.add(schreier)
                failure = _sift_failure(chain, Permutation._make(schreier), t + 1)
                if failure is not None:
                    return (f"level {t}: the Schreier generator of point {q} and "
                            f"generator {i} {failure}")
            pairs = live
    return None


def random_element(chain: StabilizerChain, rng: random.Random) -> Permutation:
    """A uniformly distributed element: the product of one uniformly chosen
    coset representative per level, composed as raw images."""
    compose = Permutation._composer(chain.degree)
    g = _identity_image(chain.degree)
    for reps in reversed(chain._rep_operands()):
        g = compose(g, reps[rng.randrange(len(reps))])
    return Permutation._make(g)


class GroupHandle:
    """A permutation group with its orbit structure and an orbit-ordered
    stabilizer chain, built the first time ``chain``, ``order`` or
    ``orbit_base_boundaries`` is read and kept from then on.

    ``orbit_base_boundaries[i - 1]`` is the number j_i of base points lying
    in orbits 1..i, so chain level j_i + 1 is the pointwise stabilizer of
    the orbit prefix (union of orbits 1..i).

    Handles are immutable after construction and safe to share across
    threads: two threads reading a new handle's chain at once may each
    build it, and the builds are equal.  Random sampling takes the rng
    explicitly so callers own any synchronization.
    """

    __slots__ = ("degree", "generators", "orbit_structure", "_built")

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 orbit_structure: OrbitStructure):
        self.degree = degree
        self.generators = tuple(generators)
        self.orbit_structure = orbit_structure
        self._built: tuple[StabilizerChain, tuple[int, ...]] | None = None

    @classmethod
    def from_generators(cls, generators: Sequence[Permutation], degree: int) -> "GroupHandle":
        """A handle on the distinct nontrivial generators, its orbits taken
        by smallest element; the chain waits for its first reader."""
        gens = _dedup_generators(generators)
        return cls(degree, gens, compute_orbits(gens, degree))

    @classmethod
    def on_points(cls, generators: Sequence[Permutation], points: Sequence[int]) -> "GroupHandle":
        """The group the generators induce on the invariant, strictly
        ascending point set ``points``, relabelled so that local point i is
        ``points[i - 1]``.  ``ValueError`` names a point out of order, out
        of range 1..degree, or mapped outside ``points``."""
        return cls.from_generators(list(map(Permutation._make, _relabel(generators, points))),
                                   len(points))

    def _chain_and_boundaries(self) -> tuple[StabilizerChain, tuple[int, ...]]:
        built = self._built
        if built is None:
            structure = self.orbit_structure
            chain = build_chain(self.generators, self.degree, orbit_ordered_candidates(structure))
            # the base points' orbit indices never decrease on an orbit-ordered base
            base_orbits = [structure.orbit_of_point(b) for b in chain.base]
            built = self._built = (chain, tuple(bisect_right(base_orbits, i)
                                                for i in range(1, structure.k + 1)))
        return built

    @property
    def chain(self) -> StabilizerChain:
        return self._chain_and_boundaries()[0]

    @property
    def orbit_base_boundaries(self) -> tuple[int, ...]:
        return self._chain_and_boundaries()[1]

    @property
    def order(self) -> int:
        return self.chain.order

    def __repr__(self) -> str:
        # the order only once the chain is built: repr must not run Schreier-Sims
        order = "" if self._built is None else f", order={self._built[0].order}"
        return f"GroupHandle(degree={self.degree}, orbits={self.orbit_structure.k}{order})"


def pointwise_stabilizer_level(handle: GroupHandle, i: int) -> int:
    """The chain level whose group is the pointwise stabilizer of the union
    of orbits 1..i.  i = 0 gives level 1 (the whole group)."""
    k = handle.orbit_structure.k
    if not 0 <= i <= k:
        raise ValueError(f"orbit prefix index {i} out of range 0..{k}")
    if i == 0:
        return 1
    return handle.orbit_base_boundaries[i - 1] + 1


def restriction_order(handle: GroupHandle, orbit_indices: Sequence[int]) -> int:
    """Order of the restriction of the group to the union of the given
    orbits: the order of :meth:`GroupHandle.on_points` on those points."""
    points = sorted(p for j in set(orbit_indices) for p in handle.orbit_structure.orbit(j))
    return GroupHandle.on_points(handle.generators, points).order
