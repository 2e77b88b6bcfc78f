import functools
import hashlib
import importlib
import inspect
import math
import random
import re
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import permdecomp.perm as perm_module
import permdecomp.stabchain as stabchain_module
from permdecomp import (
    GroupHandle,
    Permutation,
    RandomInstanceSpec,
    StabilizerChain,
    TransversalLevel,
    build_chain,
    by_name,
    compute_orbits,
    is_member,
    orbit_ordered_candidates,
    parse_cycles,
    pointwise_stabilizer_level,
    random_ddp_group,
    random_element,
    restriction_order,
    sift,
)
from permdecomp.perm import _operand
from permdecomp.stabchain import audit_chain

from oracles import closure, nielsen_mix, on_points, tab

# the package re-exports the function decompose under the module's name
decompose_module = importlib.import_module("permdecomp.decompose")

RUNNING = ["(1,2,3)(7,9,8)(10,12,11)", "(4,5,6)(7,8,9)(10,11,12)",
           "(5,6)(8,9)(11,12)", "(7,8,9)(10,11,12)"]


def running_gens():
    return [parse_cycles(s, 12) for s in RUNNING]


def running_handle():
    return GroupHandle.from_generators(running_gens(), 12)


def d10_gens():
    return [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(2,5)(3,4)", 5)]


class TestComputeOrbits:
    def test_running_example(self):
        s = compute_orbits(running_gens(), 12)
        assert s.orbits == ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12))
        assert s.fixed_points == ()

    def test_no_generators(self):
        s = compute_orbits([], 5)
        assert s.orbits == () and s.fixed_points == (1, 2, 3, 4, 5)

    def test_two_transpositions(self):
        s = compute_orbits([parse_cycles("(1,3)(2,4)", 4)], 4)
        assert s.orbits == ((1, 3), (2, 4))

    def test_support(self):
        s = compute_orbits(running_gens(), 12)
        assert s.support() == frozenset(range(1, 13))

    def test_repr_names_the_degree(self):
        s = compute_orbits([parse_cycles("(1,3)", 4)], 4)
        assert repr(s) == "OrbitStructure(degree=4, orbits=((1, 3),), fixed=(2, 4))"


class TestBuildChain:
    def test_d10_smallest_moved_base(self):
        chain = build_chain(d10_gens(), 5)
        assert chain.base == (1, 2)
        # order frozen from brute-force closure: 10 elements
        assert len(closure([tab(g) for g in d10_gens()], 5)) == 10
        assert chain.order == 10

    def test_trivial_group(self):
        chain = build_chain([], 4)
        assert chain.base == () and chain.order == 1

    def test_reprs(self):
        chain = build_chain(d10_gens(), 5)
        assert repr(chain) == "StabilizerChain(degree=5, base=(1, 2), order=10)"
        assert [repr(level) for level in chain.levels] == [
            "TransversalLevel(base_point=1, orbit_size=5)",
            "TransversalLevel(base_point=2, orbit_size=2)"]

    def test_running_example_orbit_ordered(self):
        handle = running_handle()
        assert handle.chain.base == (1, 4, 5, 7)
        # order frozen from brute-force closure: 54 elements
        assert len(closure([tab(g) for g in running_gens()], 12)) == 54
        assert handle.order == 54

    def test_original_generators_sift_to_identity(self):
        handle = running_handle()
        for g in handle.generators:
            siftee, stop = sift(handle.chain, g)
            assert siftee.is_identity() and stop == len(handle.chain.levels) + 1

    def test_order_matches_closure_on_random_groups(self):
        # each group also runs relabeled into the top points of degrees on
        # both sides of the bytes/tuple boundary; relabeling keeps the order
        # and maps closure elements to members
        rng = random.Random(11)
        for _ in range(12):
            degree = rng.randint(4, 9)
            gens = []
            for _ in range(rng.randint(1, 3)):
                images = list(range(1, degree + 1))
                rng.shuffle(images)
                gens.append(Permutation(images))
            elems = closure([tab(g) for g in gens], degree)
            if len(elems) > 5000:
                continue
            assert build_chain(gens, degree).order == len(elems)
            sample = rng.sample(sorted(elems), min(len(elems), 10))
            for big in (255, 256, 257, 300):
                shift = big - degree

                def lift(images):
                    return Permutation(list(range(1, shift + 1)) + [x + shift for x in images])

                chain = build_chain([lift(tab(g)) for g in gens], big)
                assert chain.order == len(elems)
                assert all(b > shift for b in chain.base)
                assert all(is_member(chain, lift(x)) for x in sample)

    def test_strong_generator_property(self):
        # filtering the strong set to a level's fixed prefix regenerates
        # exactly that level's group
        handle = running_handle()
        chain = handle.chain
        for t in range(len(chain.levels)):
            prefix = chain.base[:t]
            level_gens = [x for x in chain.strong_generators
                          if all(x.image(b) == b for b in prefix)]
            expected = 1
            for level in chain.levels[t:]:
                expected *= len(level.coset_reps)
            assert build_chain(level_gens, 12).order == expected

    def test_large_degree_tuple_fallback(self):
        g = parse_cycles("(260,261,262)", 300)
        chain = build_chain([g], 300)
        assert chain.order == 3 and chain.base == (260,)


class TestBuildChainContract:
    @pytest.mark.parametrize("candidates", [[0, 1, 2, 3], [1, 2, 3, 5], [1, 2, 3, 9]],
                             ids=["zero", "degree+1", "far-above"])
    def test_candidate_outside_the_points_raises(self, candidates):
        g = Permutation.from_cycles([(1, 2, 3)], 4)
        with pytest.raises(ValueError, match="out of range 1..4"):
            build_chain([g], 4, candidates)

    def test_duplicate_candidates_raise(self):
        g = Permutation.from_cycles([(1, 2, 3)], 4)
        with pytest.raises(ValueError, match="duplicate"):
            build_chain([g], 4, [1, 2, 2, 3])

    def test_uncovered_moved_point_names_the_smallest(self):
        # the first generator leaves 5 uncovered, the second 3 and 7
        gens = [parse_cycles("(1,2)(5,6)", 8), parse_cycles("(3,4,7)", 8)]
        with pytest.raises(ValueError, match=r"moved point 3$"):
            build_chain(gens, 8, [1, 2, 6, 4])

    def test_fixed_candidates_are_allowed_and_dropped(self):
        chain = build_chain([parse_cycles("(2,4)", 5)], 5, [5, 4, 1, 2, 3])
        assert chain.base == (4,) and chain.order == 2

    def test_generator_of_another_degree_raises(self):
        gens = [parse_cycles("(1,2)", 4), parse_cycles("(1,2,3)", 5)]
        with pytest.raises(ValueError, match="generator degree 5 != 4"):
            build_chain(gens, 4)


def _sha(lines):
    return hashlib.sha256("\n".join(map(str, lines)).encode()).hexdigest()


class TestDeterminism:
    """Chains pinned to the output of the builder that walked every candidate:
    the base, the strong generators in order and hence the transversals."""

    # the candidates are the running example's orbits {1,2,3}, {4,5,6},
    # {7,8,9} and {10,11,12}, concatenated in the order the id names
    @pytest.mark.parametrize("candidates, base, added", [
        (range(1, 13), (1, 4, 5, 7), []),
        ([10, 11, 12, 7, 8, 9, 4, 5, 6, 1, 2, 3], (10, 11, 4, 1), ["(4,6,5)", "(1,3,2)"]),
        ([7, 8, 9, 10, 11, 12, 1, 2, 3, 4, 5, 6], (7, 8, 1, 4), ["(4,6,5)", "(1,3,2)(4,6,5)"]),
    ], ids=["orbits-1234", "orbits-4321", "orbits-3412"])
    def test_running_example(self, candidates, base, added):
        chain = build_chain(running_gens(), 12, candidates)
        assert chain.base == base
        assert [str(x) for x in chain.strong_generators] == RUNNING + added

    def test_running_example_reversed_candidates(self):
        chain = build_chain(running_gens(), 12, range(12, 0, -1))
        assert chain.base == (12, 11, 6, 3)
        assert [str(x) for x in chain.strong_generators] == RUNNING + [
            "(1,3,2)(5,6)(7,8)(10,11)", "(1,2,3)", "(4,6,5)"]

    # (r, degree, order, orbit-ordered chain, chain on 1..degree), each chain
    # as (strong generator count, digest of their cycle strings, base digest)
    @pytest.mark.parametrize("r, degree, order, orbit_ordered, smallest_moved", [
        (21, 252, 664613997892457936451903530140172288,
         (122, "1bb143b82b58573c01b9c77bc104b4b9487c22e82a8726a2fad2bb528ca2516f",
          "7a13e05ee222686fd5f8bca2b72363d87b6019af124932fd843c2e31b01ed8e3"),
         (122, "efe8c9f2ee16b5f25894eb9565259d47b885270754e909517f2c8e5b611652be",
          "53b7c1c7ec89bcce28fcfa78646f13938592750245cd9b4457008f739ebc297a")),
        (22, 264, 42535295865117307932921825928971026432,
         (125, "7cb113226c7ae7cbf44c5d0958a31d95c9d49475b6c3fec09b508a6f99ab70ef",
          "08edaa647fe03f4b96aeb95eb25e866ab80357262392ebcae3cb0a9a1f6e4885"),
         (121, "18ce55522ccb712774b1f522676c9e5f9280d4296e938ad9f8b39cdebc8f8bfd",
          "b28611adfb0b90a8b29409c691b6a9bb0e9cf9358b5eb8e37d65d0142e13a5d3")),
    ], ids=["degree-252-bytes", "degree-264-tuples"])
    def test_random_instances_across_the_bytes_tuple_boundary(
            self, r, degree, order, orbit_ordered, smallest_moved):
        group, _ = random_ddp_group(RandomInstanceSpec(by_name("D8"), r, 3, seed=1))
        assert group.degree == degree
        chains = (group.chain, build_chain(group.generators, degree))
        for chain, expected in zip(chains, (orbit_ordered, smallest_moved)):
            assert chain.order == order
            assert (len(chain.strong_generators), _sha(chain.strong_generators),
                    _sha([",".join(map(str, chain.base))])) == expected

    # the same two instances after 2 * |gens| seeded Nielsen moves: mixed
    # generators add residues and revisit levels, which plain ones rarely do
    @pytest.mark.parametrize("r, degree, orbit_ordered, smallest_moved", [
        (21, 252,
         (148, "28ec797f21772dbcea2e9d1f35e9c8fb0b297c4b77f5e4d537eb013df53d61a8",
          "7a13e05ee222686fd5f8bca2b72363d87b6019af124932fd843c2e31b01ed8e3"),
         (142, "0000370a740e6266d04c339e652068517b5cb64c7de75b6e41c179bbef10f015",
          "53b7c1c7ec89bcce28fcfa78646f13938592750245cd9b4457008f739ebc297a")),
        (22, 264,
         (160, "099abb86e4242f633da69c33fb7f0ecfd2cc5ae04f1494739ec01e8614f39264",
          "08edaa647fe03f4b96aeb95eb25e866ab80357262392ebcae3cb0a9a1f6e4885"),
         (155, "9ad7f2f647026f04672937b7bc070a60901ce1926109c65e51f965d1d3a6a7f5",
          "b28611adfb0b90a8b29409c691b6a9bb0e9cf9358b5eb8e37d65d0142e13a5d3")),
    ], ids=["degree-252-bytes", "degree-264-tuples"])
    def test_mixed_generators_across_the_bytes_tuple_boundary(
            self, r, degree, orbit_ordered, smallest_moved):
        group, _ = random_ddp_group(RandomInstanceSpec(by_name("D8"), r, 3, seed=1))
        gens = group.generators
        mixed = [Permutation(t) for t in
                 nielsen_mix([tab(g) for g in gens], random.Random(1), 2 * len(gens))]
        chains = (GroupHandle.from_generators(mixed, degree).chain, build_chain(mixed, degree))
        for chain, expected in zip(chains, (orbit_ordered, smallest_moved)):
            assert chain.order == group.order
            assert (len(chain.strong_generators), _sha(chain.strong_generators),
                    _sha([",".join(map(str, chain.base))])) == expected

    # the wide workload's D8 s=4 base group above degree 256 (grid seed
    # 2004_11620) at r=18 and r=20, plain and after 2 * |gens| seeded Nielsen
    # moves, each chain digested whole by _chain_digest
    @pytest.mark.parametrize("r, mixed, orbit_ordered, smallest_moved", [
        (18, False, "cb3744c6d625b6f1f8e5b0acf74638c061bf35772c967c71bfdf4ba06ad1abe0",
         "24fe12862d796bc8f4e950ae34aafe15e71fad3437381d036d2859b94fe70e1f"),
        (18, True, "a71d6996ddbd09e893ceeea479c66157be81ebed0642aa1a22bbad5507ee42d2",
         "d84651c590da78ddb5899edb04fcfc68a15e3fdce86f5e2e886f02b9044466a1"),
        (20, False, "ab8f0b10ba38e543c0152d58fe05852f06c11e8e26bbab1ec9d5052daada0515",
         "4366555e62adc35d6165859c946606e9b15a8db1acfa102056344b984d75af83"),
        (20, True, "409105b77142bb746ce66e66f46311a9feab8d7d7b54e604af8910408da52494",
         "d65422552e67085b882176022426810d53299ecff242b2bebb8df137f423498e"),
    ], ids=["degree-288", "degree-288-mixed", "degree-320", "degree-320-mixed"])
    def test_wide_instances_above_degree_256(self, r, mixed, orbit_ordered, smallest_moved):
        group, _ = _wide_d8(r)
        gens = list(group.generators)
        if mixed:
            gens = [Permutation(t) for t in
                    nielsen_mix([tab(g) for g in gens], random.Random(1), 2 * len(gens))]
        chains = (GroupHandle.from_generators(gens, group.degree).chain,
                  build_chain(gens, group.degree))
        for chain, expected in zip(chains, (orbit_ordered, smallest_moved)):
            assert chain.order == group.order
            assert _chain_digest(chain) == expected


@functools.cache
def _wide_d8(r):
    return random_ddp_group(RandomInstanceSpec(by_name("D8"), r, 4, seed=2004_11620))


def _chain_digest(chain):
    """SHA-256 over the base, the strong generators in order, and each
    level's coset representatives and inverse tables in their stored order."""
    lines = [",".join(map(str, chain.base)), *chain.strong_generators]
    for level, (_, tables) in zip(chain.levels, chain._sift_plan()):
        lines += (f"{q} {r}" for q, r in level.coset_reps.items())
        lines += (f"{q} {','.join(map(str, tbl))}" for q, tbl in tables.items())
    return _sha(lines)


def _padded(g, degree):
    return Permutation([g.image(p) for p in range(1, g.degree + 1)] +
                       list(range(g.degree + 1, degree + 1)))


@functools.cache
def _rebase_instance(m, mixed):
    """Generators, degree, candidates (m of them) and true factor supports:
    C2 s=2 r=64 padded to degree 257 on the candidates 1..257 (the one fixed
    candidate comes last), C3 s=2 r=48 at degree 288, C2 s=2 r=80 at degree
    320 and C2 s=2 r=128 at degree 512 on their orbits; mixed by 2 * |gens|
    seeded Nielsen moves."""
    inner, r, degree = {257: ("C2", 64, 257), 288: ("C3", 48, 288), 320: ("C2", 80, 320),
                        512: ("C2", 128, 512)}[m]
    group, partition = random_ddp_group(RandomInstanceSpec(by_name(inner), r, 2, seed=1))
    structure = group.orbit_structure
    gens = [_padded(g, degree) for g in group.generators]
    if mixed:
        gens = [Permutation(t) for t in
                nielsen_mix([tab(g) for g in gens], random.Random(1), 2 * len(gens))]
    candidates = (list(range(1, degree + 1)) if degree > group.degree
                  else orbit_ordered_candidates(structure))
    cells = [sorted(p for j in cell for p in structure.orbit(j)) for cell in partition.cells]
    return gens, degree, candidates, cells


class TestAcrossTheRebasePoint:
    """More than 256 candidates: levels below t0 = m - 256 carry images of
    all m candidate positions, the later ones images of the first 256 (see
    build_chain).  At m = 512, t0 = 256: as many levels hold tuples as hold
    ``bytes``."""

    @pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixed"])
    @pytest.mark.parametrize("m", [257, 288, 320, 512])
    def test_audit_and_the_product_of_the_true_factors(self, m, mixed):
        gens, degree, candidates, cells = _rebase_instance(m, mixed)
        assert len(candidates) == m
        chain = build_chain(gens, degree, candidates)
        assert audit_chain(chain, gens) is None
        # each true factor on its own points, far fewer than 256 of them
        assert chain.order == math.prod(GroupHandle.on_points(gens, cell).order
                                        for cell in cells)

    # the degree-512 chains digested whole by _chain_digest
    @pytest.mark.parametrize("mixed, digest", [
        (False, "35ea6745db36e69cbb11e9eaeee008db58cbb12447c094a39e86bcb3592b02b9"),
        (True, "83ef7d333bf0b46d6828fa3ff6de347c44ca03e91cb05cbb943f0a54c78fbaa4"),
    ], ids=["plain", "mixed"])
    def test_degree_512_chains(self, mixed, digest):
        gens, degree, candidates, _ = _rebase_instance(512, mixed)
        assert _chain_digest(build_chain(gens, degree, candidates)) == digest

    # plain generators only, up to degree 320: sympy takes seconds on the
    # mixed ones and at degree 512
    @pytest.mark.parametrize("m", [257, 288, 320])
    def test_order_agrees_with_sympy(self, m):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        gens, degree, candidates, _ = _rebase_instance(m, False)
        group = combinatorics.PermutationGroup(
            [combinatorics.Permutation([g.image(p) - 1 for p in range(1, degree + 1)])
             for g in gens])
        assert build_chain(gens, degree, candidates).order == group.order()

    # wide's D8 s=4 r=16 base group (degree 256, grid seed 2004_11618) with
    # fixed points added: on its orbits there are 256 candidates at every
    # degree, on 1..degree there are degree - 256 fixed ones after them
    @pytest.mark.parametrize("on_orbits", [True, False], ids=["orbit-ordered", "1..n"])
    @pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixed"])
    @pytest.mark.parametrize("degree", [257, 300])
    def test_padding_keeps_the_chain(self, degree, mixed, on_orbits):
        group, _ = random_ddp_group(RandomInstanceSpec(by_name("D8"), 16, 4, seed=2004_11618))
        gens = list(group.generators)
        if mixed:
            gens = [Permutation(t) for t in
                    nielsen_mix([tab(g) for g in gens], random.Random(1), 2 * len(gens))]
        candidates = orbit_ordered_candidates(group.orbit_structure) if on_orbits else None
        chain = build_chain(gens, 256, candidates)
        padded = build_chain([_padded(g, degree) for g in gens], degree, candidates)
        assert padded.base == chain.base
        assert list(padded.strong_generators) == [_padded(x, degree)
                                                  for x in chain.strong_generators]
        tail = list(range(256, degree))
        for level, big in zip(chain.levels, padded.levels, strict=True):
            assert list(big.coset_reps.items()) == [(q, _padded(u, degree))
                                                    for q, u in level.coset_reps.items()]
        for (_, tables), (_, big) in zip(chain._sift_plan(), padded._sift_plan(), strict=True):
            assert [(q, list(tbl)) for q, tbl in big.items()] == \
                [(q, list(tbl[:256]) + tail) for q, tbl in tables.items()]


def pinned_d10_chain(rep2):
    """The two-level chain with the exact transversals of the worked sifting
    example; rep2 is the representative mapping 1 to 2."""
    reps1 = {
        1: Permutation.identity(5),
        2: parse_cycles(rep2, 5),
        3: parse_cycles("(1,3,5,2,4)", 5),
        4: parse_cycles("(1,4,2,5,3)", 5),
        5: parse_cycles("(1,5,4,3,2)", 5),
    }
    reps2 = {2: Permutation.identity(5), 5: parse_cycles("(2,5)(3,4)", 5)}
    levels = [TransversalLevel(1, reps1, d10_gens()),
              TransversalLevel(2, reps2, [parse_cycles("(2,5)(3,4)", 5)])]
    return StabilizerChain(5, levels, d10_gens())


class TestSift:
    def test_pinned_transversals_reproduce_siftee(self):
        chain = pinned_d10_chain("(1,2)(3,5)")
        siftee, stop = sift(chain, parse_cycles("(1,2,4,5)", 5))
        assert str(siftee) == "(2,4,3,5)"
        assert stop == 2

    def test_alternative_representative_gives_other_siftee(self):
        chain = pinned_d10_chain("(1,2,3,4,5)")
        siftee, stop = sift(chain, parse_cycles("(1,2,4,5)", 5))
        assert str(siftee) == "(2,3)"
        assert stop == 2

    def test_identity_passes_through(self):
        chain = build_chain(d10_gens(), 5)
        siftee, stop = sift(chain, Permutation.identity(5))
        assert siftee.is_identity() and stop == len(chain.levels) + 1

    @pytest.mark.parametrize("reps, message", [
        ({1: parse_cycles("(1,2)", 3), 2: Permutation.identity(3)}, "base point to the identity"),
        ({1: Permutation.identity(3), 2: parse_cycles("(1,3)", 3)}, "representative for 2"),
    ], ids=["base-point-not-identity", "wrong-image"])
    def test_level_checks_its_representatives(self, reps, message):
        with pytest.raises(ValueError, match=message):
            TransversalLevel(1, reps)

    def test_element_of_another_degree_raises(self):
        with pytest.raises(ValueError, match="degree mismatch: 6 vs 5"):
            sift(build_chain(d10_gens(), 5), Permutation.identity(6))

    @pytest.mark.parametrize("start_level", [0, 4])
    def test_start_level_out_of_range_raises(self, start_level):
        chain = build_chain(d10_gens(), 5)
        assert len(chain.levels) == 2
        with pytest.raises(ValueError, match=r"start_level .* out of range 1\.\.3"):
            sift(chain, Permutation.identity(5), start_level)

    def test_exhausted_partial_chain_returns_input(self):
        handle = running_handle()
        x3 = parse_cycles(RUNNING[2], 12)
        start = pointwise_stabilizer_level(handle, 3)
        assert start == len(handle.chain.levels) + 1
        siftee, stop = sift(handle.chain, x3, start)
        assert siftee == x3 and stop == start

    def test_contract_on_random_members(self):
        # g = siftee * h with h in the level-start group, and the siftee
        # fixes the base points it passed
        handle = running_handle()
        chain = handle.chain
        rng = random.Random(3)
        for _ in range(40):
            g = random_element(chain, rng)
            for start in range(1, len(chain.levels) + 2):
                siftee, stop = sift(chain, g, start)
                for t in range(start, stop):
                    assert siftee.image(chain.base[t - 1]) == chain.base[t - 1]
                h = siftee.inverse() * g
                residue, _ = sift(chain, h, start)
                assert residue.is_identity()


class TestIsMember:
    def test_failed_sift_example(self):
        chain = build_chain(d10_gens(), 5)
        assert not is_member(chain, parse_cycles("(2,4,3,5)", 5))

    def test_identity(self):
        assert is_member(build_chain(d10_gens(), 5), Permutation.identity(5))

    def test_element_of_another_degree_is_no_member(self):
        assert not is_member(build_chain(d10_gens(), 5), Permutation.identity(6))

    def test_generator_product(self):
        handle = running_handle()
        x1, x2, x3, _ = running_gens()
        assert is_member(handle.chain, x1 * x2 * x3)

    def test_non_members_from_outside_support(self):
        chain = build_chain([parse_cycles("(1,2,3)", 6)], 6)
        assert not is_member(chain, parse_cycles("(1,2,3)(5,6)", 6))


class TestPointwiseStabilizerLevel:
    def test_running_example_boundaries(self):
        handle = running_handle()
        assert handle.orbit_base_boundaries == (1, 3, 4, 4)
        assert pointwise_stabilizer_level(handle, 0) == 1
        assert pointwise_stabilizer_level(handle, 2) == 4
        assert pointwise_stabilizer_level(handle, 3) == 5
        assert pointwise_stabilizer_level(handle, 4) == 5

    def test_boundary_group_fixes_prefix(self):
        handle = running_handle()
        chain = handle.chain
        for i in range(1, 5):
            level = pointwise_stabilizer_level(handle, i)
            prefix = {p for j in range(1, i + 1) for p in handle.orbit_structure.orbit(j)}
            for t in range(level - 1, len(chain.levels)):
                for g in chain.levels[t].level_generators:
                    assert all(g.image(p) == p for p in prefix)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pointwise_stabilizer_level(running_handle(), 5)


def _replace_level(chain, t, coset_reps=None, level_generators=None, inverse_tables=None):
    # the chain with level t rebuilt from the given parts, the rest kept;
    # inverse tables are planted in the new chain's plan in place of the
    # ones it computes
    level = chain.levels[t - 1]
    levels = list(chain.levels)
    levels[t - 1] = TransversalLevel(
        level.base_point, level.coset_reps if coset_reps is None else coset_reps,
        level.level_generators if level_generators is None else level_generators)
    new = StabilizerChain(chain.degree, levels, chain.strong_generators)
    if inverse_tables is not None:
        new._sift_plan()[t - 1] = (level.base_point - 1, inverse_tables)
    return new


@st.composite
def relabelled_groups(draw):
    """Generators of a group on at most nine points, in up to three blocks,
    relabelled onto random points of a degree on either side of the
    bytes/tuple boundary, as drawn and after seeded Nielsen moves."""
    degree = draw(st.sampled_from([255, 256, 257, 300]))
    sizes = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    k = sum(sizes)
    rng = draw(st.randoms(use_true_random=False))
    local = []
    for _ in range(draw(st.integers(1, 4))):
        images = list(range(k))
        rng.shuffle(images)
        local.append(images)
    points = draw(st.permutations(range(1, degree + 1)))[:k]
    plain = [on_points(points, images, degree) for images in local]
    mixed = nielsen_mix(plain, rng, draw(st.integers(1, 3)) * len(plain))
    return degree, [Permutation(g) for g in plain], [Permutation(g) for g in mixed]


class TestAuditChain:
    @settings(max_examples=60, deadline=None)
    @given(relabelled_groups())
    def test_passes_built_chains(self, group):
        degree, plain, mixed = group
        for gens in (plain, mixed):
            handle = GroupHandle.from_generators(gens, degree)
            assert audit_chain(handle.chain, gens) is None
            assert audit_chain(build_chain(gens, degree), gens) is None

    def test_input_generator_outside_the_chain(self):
        handle = running_handle()
        gens = handle.generators + (parse_cycles("(1,2)", 12),)
        assert audit_chain(handle.chain, gens) == \
            "input generator 5 sifts to a non-identity element after level 4"

    def test_dropped_level_generator(self):
        # level 4 (base point 7) has one generator; without it the orbit of 7
        # is {7}, so the transversal holds points no generator reaches
        chain = _replace_level(running_handle().chain, 4, level_generators=())
        assert audit_chain(chain, running_gens()) == \
            "level 4: transversal point 8 is not in the orbit of 7"

    def test_transversal_missing_a_point(self):
        chain = running_handle().chain
        reps = {q: u for q, u in chain.levels[1].coset_reps.items() if q != 6}
        chain = _replace_level(chain, 2, coset_reps=reps)
        assert audit_chain(chain, running_gens()) == \
            "level 2: transversal misses point 6 of the orbit of 4"

    def test_transversal_with_an_unreachable_point(self):
        chain = running_handle().chain
        reps = dict(chain.levels[3].coset_reps)
        reps[10] = parse_cycles("(7,10)", 12)
        chain = _replace_level(chain, 4, coset_reps=reps)
        assert audit_chain(chain, running_gens()) == \
            "level 4: transversal point 10 is not in the orbit of 7"

    def test_level_generator_moving_an_earlier_base_point(self):
        chain = running_handle().chain
        gens = chain.levels[3].level_generators + (chain.strong_generators[0],)
        chain = _replace_level(chain, 4, level_generators=gens)
        assert audit_chain(chain, running_gens()) == \
            "level 4: generator 2 moves base point 1 of level 1"

    def test_level_generator_that_is_not_a_strong_generator(self):
        chain = running_handle().chain
        gens = chain.levels[3].level_generators + (parse_cycles("(7,8)", 12),)
        chain = _replace_level(chain, 4, level_generators=gens)
        assert audit_chain(chain, running_gens()) == \
            "level 4: generator 2 is not a strong generator"

    def test_inverse_tables_of_other_representatives(self):
        chain = running_handle().chain
        reps = chain.levels[0].coset_reps
        swapped = {0: _operand(reps[2].inverse()._img), 1: _operand(reps[1].inverse()._img),
                   2: _operand(reps[3].inverse()._img)}
        chain = _replace_level(chain, 1, inverse_tables=swapped)
        assert audit_chain(chain, []) == \
            "level 1: the inverse tables are not those of the representatives"

    def test_missing_stabilizer_level(self):
        # S3 with its point stabilizer dropped: both generators are coset
        # representatives, so they sift, but a Schreier generator does not
        a, b = parse_cycles("(1,2)", 3), parse_cycles("(1,3)", 3)
        level = TransversalLevel(1, {1: Permutation.identity(3), 2: a, 3: b}, (a, b))
        chain = StabilizerChain(3, [level], (a, b))
        assert chain.order == 3
        assert audit_chain(chain, [a, b]) == \
            "level 1: the Schreier generator of point 2 and generator 2 sifts to a " \
            "non-identity element after level 1"

    def test_inert_level_generator_is_sifted_at_the_first_point(self):
        # S3 x C2 with the C2 level dropped: (4,5) moves no point of the S3
        # level's orbit, and its Schreier generator, itself, fails there
        a, b, c = (parse_cycles(x, 5) for x in ("(1,2)", "(1,3)", "(4,5)"))
        chain = build_chain([a, b, c], 5)
        chain = StabilizerChain(5, chain.levels[:2], chain.strong_generators)
        assert audit_chain(chain, [a, b]) == \
            "level 1: the Schreier generator of point 1 and generator 3 sifts to a " \
            "non-identity element after level 2"

    def test_inert_level_generator_forms_one_product_per_level(self, monkeypatch):
        # (4,5) moves no point that the representatives of levels 1 and 2
        # move, so there it is formed at their first point only; on level 3
        # it moves the base point and is formed at both points
        a, b, c = (parse_cycles(x, 5) for x in ("(1,2)", "(1,3)", "(4,5)"))
        chain = build_chain([a, b, c], 5)
        assert [level.base_point for level in chain.levels] == [1, 2, 4]
        assert all(c in level.level_generators for level in chain.levels)
        tbl = _operand(c._img)
        products = []
        composer = Permutation._composer

        def counting(degree):
            compose = composer(degree)

            def product(x, y):
                products.append(y == tbl)
                return compose(x, y)
            return product

        # sifts compose too: stub them out to count only the audit's products
        monkeypatch.setattr(stabchain_module, "_sift_failure", lambda *args: None)
        monkeypatch.setattr(Permutation, "_composer", staticmethod(counting))
        assert audit_chain(chain, [a, b, c]) is None
        assert sum(products) == 1 + 1 + 2


    def test_law_two_reads_no_walk_helper(self, monkeypatch):
        # S3 whose level-2 generators include (1,2,3), which moves level 1's
        # base point; a helper reporting every base point fixed must not
        # hide it
        a, b = parse_cycles("(1,2,3)", 3), parse_cycles("(2,3)", 3)
        first = TransversalLevel(1, {1: Permutation.identity(3), 2: a, 3: a * a}, (a, b))
        second = TransversalLevel(2, {2: Permutation.identity(3), 3: b}, (b, a))
        chain = StabilizerChain(3, [first, second], (a, b))

        def all_fixed(elements, base):
            return tuple(len(base) + 1 for _ in elements)

        monkeypatch.setattr(stabchain_module, "_first_moved_levels", all_fixed, raising=False)
        monkeypatch.setattr(decompose_module, "_first_moved_levels", all_fixed)
        assert audit_chain(chain, [a, b]) == "level 2: generator 2 moves base point 1 of level 1"


class TestRandomElement:
    def test_trivial_group(self):
        chain = build_chain([], 3)
        assert random_element(chain, random.Random(0)).is_identity()

    def test_c3_uniform(self):
        chain = build_chain([parse_cycles("(1,2,3)", 3)], 3)
        rng = random.Random(1)
        counts = {}
        for _ in range(1200):
            g = random_element(chain, rng)
            counts[g] = counts.get(g, 0) + 1
        assert len(counts) == 3
        chi2 = sum((n - 400) ** 2 / 400 for n in counts.values())
        assert chi2 < 13.8  # df=2, p=0.001

    def test_d10_uniform_over_enumerated_elements(self):
        elements = closure([tab(g) for g in d10_gens()], 5)
        chain = build_chain(d10_gens(), 5)
        rng = random.Random(7)
        counts = {e: 0 for e in elements}
        for _ in range(2000):
            counts[tab(random_element(chain, rng))] += 1
        assert all(n > 0 for n in counts.values())
        chi2 = sum((n - 200) ** 2 / 200 for n in counts.values())
        assert chi2 < 27.9  # df=9, p=0.001


class TestOrbitOrderedCandidates:
    def test_concatenation(self):
        s = compute_orbits(running_gens(), 12)
        assert orbit_ordered_candidates(s) == list(range(1, 13))


def _count_builds(monkeypatch) -> list:
    # GroupHandle reads build_chain from its module at build time
    calls = []
    build = stabchain_module.build_chain

    def counting(gens, degree, candidates=None):
        calls.append(candidates)
        return build(gens, degree, candidates)

    monkeypatch.setattr(stabchain_module, "build_chain", counting)
    return calls


class TestLazyChain:
    def test_repr_builds_no_chain(self, monkeypatch):
        calls = _count_builds(monkeypatch)
        handle = running_handle()
        assert repr(handle) == "GroupHandle(degree=12, orbits=4)"
        assert calls == []
        handle.chain
        assert repr(handle) == "GroupHandle(degree=12, orbits=4, order=54)"
        assert len(calls) == 1

    def test_built_once_on_first_read(self, monkeypatch):
        calls = _count_builds(monkeypatch)
        handle = running_handle()
        assert calls == []
        assert handle.orbit_base_boundaries == (1, 3, 4, 4)
        assert len(calls) == 1
        assert handle.order == 54 and handle.chain is handle.chain
        assert len(calls) == 1

    @pytest.mark.parametrize("name, r, s", [("D8", 3, 2), ("A4", 2, 3)])
    def test_equals_an_orbit_ordered_build(self, name, r, s):
        handle, _ = random_ddp_group(RandomInstanceSpec(by_name(name), r, s, seed=2))
        chain = handle.chain
        fresh = build_chain(handle.generators, handle.degree,
                            orbit_ordered_candidates(handle.orbit_structure))
        assert chain.base == fresh.base and chain.order == fresh.order
        assert chain.strong_generators == fresh.strong_generators
        assert [level.coset_reps for level in chain.levels] == \
            [level.coset_reps for level in fresh.levels]

    def test_random_ddp_group_leaves_the_chain_unbuilt(self, monkeypatch):
        handle, _ = random_ddp_group(RandomInstanceSpec(by_name("D8"), 4, 3, seed=1))
        calls = _count_builds(monkeypatch)
        handle.chain
        assert calls == [orbit_ordered_candidates(handle.orbit_structure)]


def _strips(gens, degree, candidates):
    """The chain ``build_chain`` returns, and the level t at which each run
    of its sweep's ``strip`` closure started, read by a profile hook (the
    sweep's own level: a component's, when the generators split)."""
    code = next(c for c in stabchain_module._sweep.__code__.co_consts
                if getattr(c, "co_name", "") == "strip")
    starts = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            starts.append(frame.f_locals["t"])

    sys.setprofile(profile)
    try:
        chain = build_chain(gens, degree, candidates)
    finally:
        sys.setprofile(None)
    return chain, starts


@functools.cache
def _d8_s4(r, seed, mixed):
    """D8 s=4 generators (after 2 * |gens| seeded Nielsen moves when
    mixed), degree, orbit-ordered candidates and order."""
    group, _ = random_ddp_group(RandomInstanceSpec(by_name("D8"), r, 4, seed=seed))
    gens = list(group.generators)
    if mixed:
        gens = [Permutation(t) for t in
                nielsen_mix([tab(g) for g in gens], random.Random(1), 2 * len(gens))]
    return gens, group.degree, orbit_ordered_candidates(group.orbit_structure), group.order


class TestSchreierPairs:
    # wide's D8 s=4 r=16 base group (degree 256, grid seed 2004_11618), CI's
    # D8 r=17 s=4 seed-1 group (degree 272, so t0 = 16), and wide's D8 s=4
    # r=18 group (degree 288, t0 = 32, grid seed 2004_11620) after 2 * |gens|
    # seeded Nielsen moves, whose residues re-descend across t0.  Each pair
    # of a final level is stripped at most once, and once more after each
    # residue it yields; a residue adds a point to the orbit of the last
    # level it joins, and that point's tree edge is never stripped.  A pair
    # whose Schreier generator equals its own generator is not stripped:
    # 310, 321 and 2,548 strips, where stripping every pair that is not a
    # tree edge makes 8,442, 9,742 and 11,877
    @pytest.mark.parametrize("r, seed, mixed, bound", [(16, 2004_11618, False, 1000),
                                                       (17, 1, False, 1000),
                                                       (18, 2004_11620, True, 4000)],
                             ids=["wide-degree-256", "ci-degree-272", "wide-degree-288-mixed"])
    def test_each_pair_is_verified_once(self, r, seed, mixed, bound):
        gens, degree, candidates, order = _d8_s4(r, seed, mixed)
        chain, starts = _strips(gens, degree, candidates)
        assert chain.order == order
        assert len(starts) <= sum(len(level.coset_reps) * len(level.level_generators)
                                  for level in chain.levels)
        assert len(starts) < bound

    # wide's degree-288 group (t0 = 32) after 2 * |gens| seeded Nielsen
    # moves is one support component, so one sweep crosses t0: it strips
    # below t0 (1,198 of its 2,548 strips) and cuts a siftee as it passes
    # t0.  The plain group splits into components of 16 positions, whose
    # sweeps never reach a tuple level
    def test_a_strip_still_starts_below_t0(self):
        gens, degree, candidates, order = _d8_s4(18, 2004_11620, True)
        t0 = len(candidates) - 256
        assert t0 == 32
        chain, starts = _strips(gens, degree, candidates)
        assert chain.order == order
        assert any(t < t0 for t in starts)


def _rewritten_build_chain(sweep_source=None, source=None):
    """``build_chain`` run from the given sources of its sweep and of
    itself, each in place of the module's when given; its merge runs the
    same sweep."""
    namespace = dict(vars(stabchain_module))
    for text in (sweep_source or inspect.getsource(stabchain_module._sweep),
                 inspect.getsource(stabchain_module._merged),
                 source or inspect.getsource(build_chain)):
        exec(textwrap.dedent(text), namespace)
    return namespace["build_chain"]


@functools.cache
def _unskipped_build_chain():
    """``build_chain`` without the sweep's three skips: every pair whose
    Schreier generator equals its own generator is stripped, every pair of
    a level below t0 is queued whatever its generator moves, and the
    re-descent extends each level it passes, settled singletons too."""
    source = inspect.getsource(stabchain_module._sweep)
    skips = {"if sg == s:": ("if False:", 1),
             " if mask & moved]": ("]", 2),
             "while t >= 0 and nodes[t].exp_pts == 1:": ("while False:", 1)}
    for skip, (unskipped, count) in skips.items():
        assert source.count(skip) == count
        source = source.replace(skip, unskipped)
    # residue_dropping_build_chain in test_decompose rewrites this line
    assert source.count("if j == m:") == 1
    return _rewritten_build_chain(sweep_source=source)


_SPLIT = "if len(gens) > 1 and m >= _SPLIT_CANDIDATES:"
_BALANCED = "if parts is not None and 2 * max(mask.bit_count() for mask, _ in parts) <= m:"


@functools.cache
def _unsplit_build_chain():
    """``build_chain`` that runs its one sweep over all candidate positions
    whatever support components the generators fall into."""
    source = inspect.getsource(build_chain)
    assert source.count(_SPLIT) == 1
    return _rewritten_build_chain(source=source.replace(_SPLIT, "if False:"))


@functools.cache
def _split_build_chain():
    """``build_chain`` that sweeps each support component on its own
    positions however few candidates there are and however large its
    largest component."""
    source = inspect.getsource(build_chain)
    assert source.count(_SPLIT) == 1 and source.count(_BALANCED) == 1
    return _rewritten_build_chain(source=source.replace(_SPLIT, "if len(gens) > 1:")
                                  .replace(_BALANCED, "if parts is not None:"))


def _assert_same_chain(chain, other):
    """The same base, strong generators, and level generators and
    representatives on each level, all in order."""
    assert chain.base == other.base
    assert chain.strong_generators == other.strong_generators
    for level, same in zip(chain.levels, other.levels, strict=True):
        assert level.level_generators == same.level_generators
        assert list(level.coset_reps.items()) == list(same.coset_reps.items())


# the grid shapes of the benchmark's four workloads (inner, s, r, grid seed)
WORKLOAD_SHAPES = [
    # many-orbits
    ("C2", 2, 50, 2004_11618), ("C3", 2, 42, 2004_11619), ("S3", 2, 36, 2004_11620),
    ("D8", 2, 26, 2004_11621),
    # wide
    ("D8", 4, 16, 2004_11618), ("A4", 4, 16, 2004_11619), ("D8", 4, 18, 2004_11620),
    # apps
    ("S4", 3, 3, 2004_11618), ("A4", 4, 4, 2004_11619), ("D8", 4, 8, 2004_11620),
    # oracle
    ("A4", 4, 4, 2004_11618), ("D8", 4, 6, 2004_11619), ("D8", 4, 8, 2004_11620),
]
# and D8 s=4 r=32 (degree 512, t0 = 256): as many levels hold tuples as bytes
SKIP_SHAPES = WORKLOAD_SHAPES + [("D8", 4, 32, 1)]


class TestSkippedSchreierPairs:
    """The sweep skips three kinds of work that could add nothing (see
    build_chain): a pair of level t whose Schreier generator equals its
    generator s, since s lies on level t+1, which is complete; a pair of a
    level below t0 whose s moves no position that the level's
    representatives or base point move, since its Schreier generator is s;
    and a settled singleton level on a re-descent, whose new generators all
    fix its base point."""

    @pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixed"])
    @pytest.mark.parametrize("inner, s, r, seed", SKIP_SHAPES,
                             ids=[f"{i}-s{s}-r{r}-seed{seed}" for i, s, r, seed in SKIP_SHAPES])
    def test_the_skip_changes_no_chain(self, inner, s, r, seed, mixed):
        group, _ = random_ddp_group(RandomInstanceSpec(by_name(inner), r, s, seed=seed))
        gens = list(group.generators)
        if mixed:
            gens = [Permutation(t) for t in
                    nielsen_mix([tab(g) for g in gens], random.Random(1), 2 * len(gens))]
        candidates = orbit_ordered_candidates(group.orbit_structure)
        chain = build_chain(gens, group.degree, candidates)
        assert chain.order == group.order
        _assert_same_chain(chain, _unskipped_build_chain()(gens, group.degree, candidates))

    # wide's degree-288 group (t0 = 32) and D8 s=4 r=32 seed 1 (degree 512,
    # t0 = 256), each after 2 * |gens| seeded Nielsen moves, so that one
    # sweep crosses t0: 7,101 and 62,430 tuple products, where the sweep
    # without its three skips makes 8,880 and 104,640
    @pytest.mark.parametrize("r, seed, bound", [(18, 2004_11620, 8000), (32, 1, 80000)],
                             ids=["wide-degree-288-mixed", "degree-512-mixed"])
    def test_tuple_products_below_t0(self, monkeypatch, r, seed, bound):
        gens, degree, candidates, order = _d8_s4(r, seed, True)
        products = _count_tuple_products(monkeypatch)
        assert build_chain(gens, degree, candidates).order == order
        assert 0 < len(products) < bound


def _count_tuple_products(monkeypatch) -> list:
    # Permutation._composer reads the module global at each call
    products = []
    compose_tuples = perm_module._compose_tuples

    def counted(img, tbl):
        products.append(None)
        return compose_tuples(img, tbl)

    monkeypatch.setattr(perm_module, "_compose_tuples", counted)
    return products


class TestSupportComponents:
    """With two or more support components, build_chain sweeps each on its
    own positions and merges the results into the chain of the one sweep
    over all candidate positions (see build_chain)."""

    # build_chain splits from 128 candidates on, into components of at
    # most half of them, and the forced copy at any size and into any
    # components, so the apps and oracle shapes (36 to 128 points) and the
    # mixed generators that leave components of unequal size split too
    @pytest.mark.parametrize("orbit_ordered", [True, False], ids=["orbit-ordered", "1..n"])
    @pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixed"])
    @pytest.mark.parametrize("inner, s, r, seed", SKIP_SHAPES,
                             ids=[f"{i}-s{s}-r{r}-seed{seed}" for i, s, r, seed in SKIP_SHAPES])
    def test_the_split_changes_no_chain(self, inner, s, r, seed, mixed, orbit_ordered):
        group, _ = random_ddp_group(RandomInstanceSpec(by_name(inner), r, s, seed=seed))
        gens = list(group.generators)
        if mixed:
            gens = [Permutation(t) for t in
                    nielsen_mix([tab(g) for g in gens], random.Random(1), 2 * len(gens))]
        candidates = orbit_ordered_candidates(group.orbit_structure) if orbit_ordered else None
        one = _unsplit_build_chain()(gens, group.degree, candidates)
        for build in (build_chain, _split_build_chain()):
            chain = build(gens, group.degree, candidates)
            assert chain.order == group.order
            _assert_same_chain(chain, one)

    # candidates in a seeded random order interleave the components' levels
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("inner, s, r", [("D8", 2, 3), ("S4", 3, 2), ("A4", 2, 4)])
    def test_shuffled_candidates(self, inner, s, r, seed):
        group, _ = random_ddp_group(RandomInstanceSpec(by_name(inner), r, s, seed=seed))
        candidates = random.Random(seed).sample(range(1, group.degree + 1), group.degree)
        chain = _split_build_chain()(group.generators, group.degree, candidates)
        assert chain.order == group.order
        _assert_same_chain(
            chain, _unsplit_build_chain()(group.generators, group.degree, candidates))

    # D8 s=4 r=64 seed 1: degree 1024, 64 components of 16 positions
    @pytest.mark.parametrize("orbit_ordered", [True, False], ids=["orbit-ordered", "1..n"])
    def test_degree_1024(self, orbit_ordered):
        group, _ = random_ddp_group(RandomInstanceSpec(by_name("D8"), 64, 4, seed=1))
        assert group.degree == 1024
        candidates = orbit_ordered_candidates(group.orbit_structure) if orbit_ordered else None
        chain = build_chain(group.generators, 1024, candidates)
        assert chain.order == group.order
        _assert_same_chain(chain, _unsplit_build_chain()(group.generators, 1024, candidates))

    # wide's plain degree-288 group falls into 18 components of 16
    # positions, each swept in bytes: the only tuple products left are the
    # cover check's two per generator and one per representative built in
    # the original points, 297 where the one sweep makes 918
    def test_no_sweep_product_is_a_tuple(self, monkeypatch):
        gens, degree, candidates, order = _d8_s4(18, 2004_11620, False)
        products = _count_tuple_products(monkeypatch)
        chain = build_chain(gens, degree, candidates)
        assert chain.order == order
        assert len(products) == 2 * len(gens) + sum(len(level.coset_reps) - 1
                                                    for level in chain.levels)


class TestOnPoints:
    # unchecked, [0, 1, 4] and [1, 4, 4] relabel (1,4) into a non-bijective
    # "permutation" whose cycles never end, and [1, 4, 5] and [1, 3] index
    # past the image or outside the relabelling
    @pytest.mark.parametrize("cycle, points, message", [
        ("(1,4)", [0, 1, 4], "point 0 out of range 1..4"),
        ("(1,4)", [1, 4, 4], "points not strictly ascending: 4 after 4"),
        ("(1,4)", [1, 4, 5], "point 5 out of range 1..4"),
        ("(1,4)", [4, 1], "points not strictly ascending: 1 after 4"),
        ("(1,2)", [1, 3], "point set not invariant: 1 maps to 2"),
    ], ids=["zero", "repeated", "above-degree", "descending", "not-invariant"])
    def test_bad_points_raise(self, cycle, points, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GroupHandle.on_points([parse_cycles(cycle, 4)], points)

    # the trivial group on no points, as a handle and as the restriction to
    # no orbits
    def test_no_points_has_order_one(self):
        handle = running_handle()
        assert GroupHandle.on_points(handle.generators, []).order == 1
        assert restriction_order(handle, []) == 1
