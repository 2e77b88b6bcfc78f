import gc
import hashlib
import json
import random
import time
from itertools import combinations
from pathlib import Path

import pytest

import permdecomp.oracle as oracle_module
import permdecomp.stabchain as stabchain_module
from permdecomp import (
    ComputationTimeout,
    GroupHandle,
    OrbitCapExceeded,
    OrbitPartition,
    Permutation,
    RandomInstanceSpec,
    alternating,
    brute_force_decompose,
    cyclic,
    decompose,
    decompose_handle,
    dihedral,
    format_cycles,
    is_ddp_indecomposable,
    make_subdirect,
    parse_cycles,
    random_ddp_group,
    restriction_order,
    symmetric,
    verify_decomposition,
)
from permdecomp.groups import by_name
from permdecomp.stabchain import audit_chain

from oracles import nielsen_mix, tab


GOLDEN = Path(__file__).parent / "golden"

RUNNING = ["(1,2,3)(7,9,8)(10,12,11)", "(4,5,6)(7,8,9)(10,11,12)",
           "(5,6)(8,9)(11,12)", "(7,8,9)(10,11,12)"]


def running_handle():
    return GroupHandle.from_generators([parse_cycles(s, 12) for s in RUNNING], 12)


class TestVerifyDecomposition:
    def test_accepts_true_partition(self):
        assert verify_decomposition(running_handle(), OrbitPartition([[1], [2, 3, 4]]))

    def test_rejects_singleton_refinement(self):
        h = running_handle()
        assert not verify_decomposition(h, OrbitPartition([[1], [2], [3], [4]]))
        # per-orbit restriction orders: C3, then S3 on each remaining orbit
        orders = [restriction_order(h, [j]) for j in (1, 2, 3, 4)]
        assert orders == [3, 6, 6, 6]

    def test_single_cell_always_accepted(self):
        assert verify_decomposition(running_handle(), OrbitPartition([[1, 2, 3, 4]]))

    def test_malformed_partition(self):
        with pytest.raises(ValueError):
            verify_decomposition(running_handle(), OrbitPartition([[1], [2, 3]]))


@pytest.fixture
def audited_chains(monkeypatch):
    """Every chain built through the oracle's or the stabchain module's
    ``build_chain`` (node chains, the whole group's chain, restriction
    chains) must pass the audit, so the oracle's answers rest on checked
    chains.  Returns the list of audited chains."""
    audited = []
    for module in (oracle_module, stabchain_module):
        build = module.build_chain

        def auditing(gens, degree, candidates=None, build=build):
            chain = build(gens, degree, candidates)
            assert audit_chain(chain, gens) is None
            audited.append(chain)
            return chain

        monkeypatch.setattr(module, "build_chain", auditing)
    return audited


@pytest.fixture
def built_chains(monkeypatch):
    """The point set of every chain built through the oracle's or the
    stabchain module's ``build_chain``, in build order.  A test clears it
    once its instance is generated."""
    built = []
    for module in (oracle_module, stabchain_module):
        build = module.build_chain

        def recording(gens, degree, candidates=None, build=build):
            built.append(frozenset(range(1, degree + 1) if candidates is None else candidates))
            return build(gens, degree, candidates)

        monkeypatch.setattr(module, "build_chain", recording)
    return built


def cell_points(handle, partition):
    return {frozenset(p for j in cell for p in handle.orbit_structure.orbit(j))
            for cell in partition.cells}


@pytest.fixture
def counted(monkeypatch):
    """Counts of the oracle's split tests (``splits``), its membership sifts
    (``sifts``) and the split tests made before the recursion is first
    entered (``before_recursion``, None until then).  A test resets them
    once its instance is generated."""
    counts = reset({})
    splits, is_member, split = (oracle_module._splits, oracle_module.is_member,
                                oracle_module._split)

    def counting_splits(*args):
        counts["splits"] += 1
        return splits(*args)

    def counting_is_member(*args):
        counts["sifts"] += 1
        return is_member(*args)

    def noting_split(*args):
        if counts["before_recursion"] is None:
            counts["before_recursion"] = counts["splits"]
        return split(*args)

    monkeypatch.setattr(oracle_module, "_splits", counting_splits)
    monkeypatch.setattr(oracle_module, "is_member", counting_is_member)
    monkeypatch.setattr(oracle_module, "_split", noting_split)
    return counts


def reset(counts):
    counts.update(splits=0, sifts=0, before_recursion=None)
    return counts


def moved_orbits(handle, g):
    structure = handle.orbit_structure
    return {structure.orbit_of_point(p) for p in range(1, handle.degree + 1) if g.image(p) != p}


PAIRS_FIRST_INSTANCES = [(dihedral(8), 2, 2, 1), (dihedral(8), 2, 2, 2), (dihedral(8), 2, 2, 3),
                         (cyclic(2), 2, 4, 2), (alternating(4), 2, 3, 1), (symmetric(4), 2, 3, 2),
                         (dihedral(8), 1, 4, 1)]


class TestBruteForce:
    def test_running_example(self):
        assert brute_force_decompose(running_handle()) == OrbitPartition([[1], [2, 3, 4]])

    def test_full_product_of_transpositions(self):
        h = GroupHandle.from_generators(
            [parse_cycles("(1,2)", 4), parse_cycles("(3,4)", 4)], 4)
        assert brute_force_decompose(h) == OrbitPartition([[1], [2]])

    def test_diagonal_involution(self):
        h = GroupHandle.from_generators([parse_cycles("(1,2)(3,4)", 4)], 4)
        assert brute_force_decompose(h) == OrbitPartition([[1, 2]])

    def test_trivial_group_has_the_empty_partition(self):
        h = GroupHandle.from_generators([], 4)
        assert brute_force_decompose(h) == OrbitPartition(())

    def test_orbit_cap(self):
        gens = [parse_cycles(f"({2*i+1},{2*i+2})", 26) for i in range(13)]
        h = GroupHandle.from_generators(gens, 26)
        with pytest.raises(OrbitCapExceeded):
            brute_force_decompose(h)
        assert len(brute_force_decompose(h, cap=13).cells) == 13

    def test_pairs_first_agrees(self, audited_chains):
        for inner, r, s, seed in PAIRS_FIRST_INSTANCES:
            H, expected = random_ddp_group(RandomInstanceSpec(inner, r, s, seed))
            glued = brute_force_decompose(H, pairs_first=True)
            assert glued == expected == brute_force_decompose(H, pairs_first=False)
            assert verify_decomposition(H, glued)
        # in the last instance orbits 1 and 3 split as a pair, so the pairs
        # pass joins their units only through orbit 2
        splits = {pair: restriction_order(H, pair) == restriction_order(H, pair[:1])
                  * restriction_order(H, pair[1:]) for pair in ((1, 2), (1, 3), (2, 3))}
        assert splits == {(1, 2): False, (1, 3): True, (2, 3): False}
        assert audited_chains

    @pytest.mark.parametrize("pairs_first", [False, True])
    def test_pairwise_products_without_a_split(self, pairs_first):
        # every two-orbit restriction is the full C2 x C2, so the pairs pass
        # glues nothing, yet the order-4 group does not split
        h = GroupHandle.from_generators(
            [parse_cycles("(1,2)(3,4)", 6), parse_cycles("(3,4)(5,6)", 6)], 6)
        assert all(restriction_order(h, pair) == 4 for pair in ((1, 2), (1, 3), (2, 3)))
        assert brute_force_decompose(h, pairs_first=pairs_first) == OrbitPartition([[1, 2, 3]])

    def test_deadline(self):
        H, _ = random_ddp_group(RandomInstanceSpec(symmetric(4), 3, 3, seed=1))
        with pytest.raises(ComputationTimeout):
            brute_force_decompose(H, cap=40, deadline=0.0)
        # the pairs pass glues all four orbits, so the recursion never runs
        # and only the pairs pass can notice the deadline
        H, _ = random_ddp_group(RandomInstanceSpec(dihedral(8), 1, 4, seed=1))
        with pytest.raises(ComputationTimeout):
            brute_force_decompose(H, cap=40, pairs_first=True, deadline=0.0)

    def test_unlinked_pairs_build_no_chain(self, built_chains):
        H, expected = random_ddp_group(RandomInstanceSpec(dihedral(8), 4, 3, seed=1))
        built_chains.clear()
        structure = H.orbit_structure
        assert brute_force_decompose(H, pairs_first=True) == expected
        linked = [{structure.orbit_of_point(p) for p in range(1, H.degree + 1)
                   if g.image(p) != p} for g in H.generators]
        # a chain is built only where some generator moves two of its orbits
        for points in built_chains:
            inside = {structure.orbit_of_point(p) for p in points}
            assert any(len(orbits & inside) >= 2 for orbits in linked)
        # 66 pairs and the recursion nodes, most of them linked by no generator
        assert len(built_chains) <= 12
        assert brute_force_decompose(H, pairs_first=False) == expected

    def test_plain_instance_builds_no_whole_group_chain(self, built_chains):
        # each generator acts inside one factor, so the first bipartition
        # that cuts between factors splits without a sift
        H, expected = random_ddp_group(RandomInstanceSpec(dihedral(8), 4, 3, seed=1))
        built_chains.clear()
        assert brute_force_decompose(H, pairs_first=True) == expected
        assert built_chains and max(map(len, built_chains)) < H.degree

    def test_plain_search_builds_each_cell_chain_once(self, built_chains):
        # each generator acts inside one true cell, so every component the
        # search sifts through is one cell, and one call builds each cell's
        # chain once for all the nodes inside it
        H, expected = random_ddp_group(RandomInstanceSpec(alternating(4), 8, 4, seed=1))
        built_chains.clear()
        assert brute_force_decompose(H, cap=40) == expected
        cells = cell_points(H, expected)
        assert all(len(cell) == 16 for cell in cells)
        assert len(built_chains) == 8 and set(built_chains) == cells

    def test_chains_stay_inside_one_cell(self, built_chains):
        # the oracle benchmark's D8 s=4 r=8 base group: a node spanning
        # several cells sifts through the chain of one cell, never its own
        H, expected = random_ddp_group(RandomInstanceSpec(by_name("D8"), 8, 4,
                                                          seed=2004_11618 + 2))
        built_chains.clear()
        assert brute_force_decompose(H, cap=40, pairs_first=True) == expected
        cells = cell_points(H, expected)
        assert built_chains
        assert all(any(points <= cell for cell in cells) for points in built_chains)

    @pytest.mark.parametrize("pairs_first", [False, True])
    def test_search_leaves_no_reference_cycle(self, pairs_first):
        # nodes and chains are freed by reference counting when the call
        # returns, not held until the next cyclic collection
        H, expected = random_ddp_group(RandomInstanceSpec(dihedral(8), 4, 4, seed=1))
        gc.collect()
        gc.disable()
        try:
            assert brute_force_decompose(H, cap=40, pairs_first=pairs_first) == expected
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_mixed_generators(self, audited_chains, built_chains):
        # Nielsen moves make most generators act on several factors, so most
        # pairs and nodes need a chain; every answer must stay the truth, and
        # one call builds each component's chain at most once
        rng = random.Random(2004)
        # three one-orbit cells: the recursion reaches the two-orbit node
        # {2, 3}, whose component the pairs pass has sifted through already
        for inner, r, s, seed in PAIRS_FIRST_INSTANCES + [(cyclic(3), 3, 1, 1)]:
            H, expected = random_ddp_group(RandomInstanceSpec(inner, r, s, seed))
            gens = [Permutation(t) for t in
                    nielsen_mix([tab(g) for g in H.generators], rng, 2 * len(H.generators))]
            M = GroupHandle.from_generators(gens, H.degree)
            assert M.order == H.order
            assert M.orbit_structure.orbits == H.orbit_structure.orbits
            cell_of = {j: c for c, cell in enumerate(expected.cells) for j in cell}
            assert r == 1 or any(len({cell_of[M.orbit_structure.orbit_of_point(p)]
                                      for p in range(1, H.degree + 1) if g.image(p) != p}) > 1
                                 for g in gens)
            for pairs_first in (True, False):
                built_chains.clear()
                assert brute_force_decompose(M, pairs_first=pairs_first) == expected
                assert len(set(built_chains)) == len(built_chains)
            assert decompose(gens, H.degree).partition == expected
        assert audited_chains


# acceptance criterion 7's instances (A4 s=4, searched without the pairs
# pass) and the number of split tests each makes: one per candidate
# bipartition, so the stored answers must leave it as it is
CRITERION_7_SPLIT_TESTS = {(4, 1): 1349, (4, 2): 1678, (4, 3): 1648,
                           (8, 1): 17513, (8, 2): 21214, (8, 3): 20973}


class TestStoredAnswers:
    @pytest.mark.parametrize(("r", "seed"), sorted(CRITERION_7_SPLIT_TESTS))
    def test_same_search_with_each_restriction_sifted_once(self, counted, r, seed):
        H, expected = random_ddp_group(RandomInstanceSpec(alternating(4), r, 4, seed))
        reset(counted)
        assert brute_force_decompose(H, cap=40) == expected
        assert counted["splits"] == CRITERION_7_SPLIT_TESTS[r, seed]
        # each generator acts inside one cell, and every node is a union of
        # cells, so a generator's component is always its cell: a sift
        # decides one proper restriction of g to a set of its orbits, and g
        # has 2^|orbits(g)| - 2 of them (sifting each test's restrictions
        # afresh makes 1,668-30,708 sifts here)
        bound = sum(2 ** len(moved_orbits(H, g)) - 2 for g in H.generators)
        assert 0 < counted["sifts"] <= bound

    def test_pairs_pass_tests_only_linked_pairs(self, counted):
        # the oracle benchmark's D8 s=4 r=8 base group: 32 orbits, so 496
        # pairs, but each generator acts inside one 4-orbit cell, so at most
        # 8 * 6 = 48 pairs are moved together by some generator
        H, expected = random_ddp_group(RandomInstanceSpec(by_name("D8"), 8, 4,
                                                          seed=2004_11618 + 2))
        assert H.orbit_structure.k == 32
        linked = {pair for g in H.generators
                  for pair in combinations(sorted(moved_orbits(H, g)), 2)}
        assert len(linked) <= 48
        reset(counted)
        assert brute_force_decompose(H, cap=40, pairs_first=True) == expected
        assert 0 < counted["before_recursion"] <= len(linked)
        assert brute_force_decompose(H, cap=40, pairs_first=False) == expected


class TestIndecomposable:
    def test_diagonal(self):
        h = GroupHandle.from_generators([parse_cycles("(1,2)(3,4)", 4)], 4)
        assert is_ddp_indecomposable(h)

    def test_full_product(self):
        h = GroupHandle.from_generators(
            [parse_cycles("(1,2)", 4), parse_cycles("(3,4)", 4)], 4)
        assert not is_ddp_indecomposable(h)

    def test_transitive(self):
        h = GroupHandle.from_generators(
            [parse_cycles("(1,2,3,4)", 4), parse_cycles("(1,2)", 4)], 4)
        assert is_ddp_indecomposable(h)

    # the three groups above, and one of four orbits whose only split is
    # {1,2}|{3,4}, so the first valid bipartition has two orbits a side
    @pytest.mark.parametrize("cycles, degree", [
        (["(1,2)(3,4)"], 4), (["(1,2)", "(3,4)"], 4), (["(1,2,3,4)", "(1,2)"], 4),
        (["(1,2)(3,4)", "(5,6)(7,8)"], 8)])
    def test_agrees_with_the_full_search(self, cycles, degree):
        h = GroupHandle.from_generators([parse_cycles(c, degree) for c in cycles], degree)
        assert is_ddp_indecomposable(h) == (len(brute_force_decompose(h).cells) == 1)

    def test_first_split_of_two_orbits_a_side(self):
        h = GroupHandle.from_generators(
            [parse_cycles("(1,2)(3,4)", 8), parse_cycles("(5,6)(7,8)", 8)], 8)
        assert brute_force_decompose(h) == OrbitPartition([[1, 2], [3, 4]])
        assert not is_ddp_indecomposable(h)

    def test_agrees_on_every_drawn_candidate(self, monkeypatch):
        # every candidate make_subdirect tests at s = 2..4 over two seeds,
        # against the full search's cell count; both verdicts occur (each D8
        # candidate these draw is indecomposable, the others are mixed)
        seen = []
        test = oracle_module.is_ddp_indecomposable

        def recording(handle):
            seen.append(handle)
            return test(handle)
        monkeypatch.setattr(oracle_module, "is_ddp_indecomposable", recording)
        for inner in ("C3", "S3", "A4", "D8"):
            for s in (2, 3, 4):
                for seed in (0, 1):
                    make_subdirect(by_name(inner), s, random.Random(seed))
        monkeypatch.undo()
        verdicts = [is_ddp_indecomposable(h) for h in seen]
        assert verdicts == [len(brute_force_decompose(h).cells) == 1 for h in seen]
        assert set(verdicts) == {True, False}

    def test_orbit_cap(self):
        h = GroupHandle.from_generators(
            [parse_cycles(f"({2 * j - 1},{2 * j})", 26) for j in range(1, 14)], 26)
        assert h.orbit_structure.k == 13
        with pytest.raises(OrbitCapExceeded):
            is_ddp_indecomposable(h)


class TestMakeSubdirect:
    def test_single_copy_of_cyclic_group(self):
        h = make_subdirect(cyclic(3), 1, random.Random(1))
        assert h.degree == 3 and h.order == 3

    def test_two_copies_of_c3_gives_order_three_diagonal(self):
        # subdirect subgroups of C3 x C3 with surjective projections are the
        # full product (order 9, decomposable) and the two order-3 graphs of
        # automorphisms; only the latter are indecomposable
        for seed in range(1, 6):
            h = make_subdirect(cyclic(3), 2, random.Random(seed))
            assert h.order == 3
            assert h.orbit_structure.orbits == ((1, 2, 3), (4, 5, 6))
            assert restriction_order(h, [1]) == 3 and restriction_order(h, [2]) == 3

    def test_s4_four_copies_properties(self):
        h = make_subdirect(symmetric(4), 4, random.Random(2))
        assert h.orbit_structure.k == 4
        assert all(restriction_order(h, [j]) == 24 for j in range(1, 5))
        assert is_ddp_indecomposable(h)

    def test_requires_transitive_inner(self):
        intrans = GroupHandle.from_generators(
            [parse_cycles("(1,2)", 4), parse_cycles("(3,4)", 4)], 4)
        with pytest.raises(ValueError):
            make_subdirect(intrans, 2, random.Random(0))

    def test_requires_a_copy(self):
        with pytest.raises(ValueError, match="s must be at least 1"):
            make_subdirect(cyclic(3), 0, random.Random(0))

    @pytest.mark.parametrize("inner", ["C3", "S3"])
    def test_copies_above_the_orbit_cap_fail_fast(self, inner):
        # acceptance runs the exponential oracle, which did not return
        # within 100 s on these instances
        start = time.perf_counter()
        with pytest.raises(OrbitCapExceeded, match=r"s=42 .* cap 12: .*brute-force oracle"):
            random_ddp_group(RandomInstanceSpec(by_name(inner), 2, 42, seed=5))
        assert time.perf_counter() - start < 1.0

    def test_copies_at_the_orbit_cap_still_build(self):
        H, expected = random_ddp_group(RandomInstanceSpec(alternating(4), 1, 12, seed=5))
        assert H.orbit_structure.k == 12
        assert expected == OrbitPartition([list(range(1, 13))])
        assert decompose_handle(H).partition == expected

    def test_pathological_combination_exhausts_budget(self):
        # A5 is simple, so subdirect products of three copies with
        # surjective projections are diagonal graphs of automorphism pairs;
        # random elements almost never align, and the retry budget is the
        # designed signal for such inner/copies combinations
        from permdecomp import RetryBudgetExhausted, alternating

        with pytest.raises(RetryBudgetExhausted):
            make_subdirect(alternating(5), 3, random.Random(1), budget=40)


class TestRandomDdpGroup:
    def test_single_factor_has_single_cell(self):
        H, expected = random_ddp_group(RandomInstanceSpec(dihedral(8), 1, 3, seed=4))
        assert expected == OrbitPartition([[1, 2, 3]])
        assert decompose_handle(H).partition == expected

    def test_d8_grid_recovers_cells(self):
        H, expected = random_ddp_group(RandomInstanceSpec(dihedral(8), 4, 4, seed=1))
        assert H.degree == 64
        assert len(expected.cells) == 4
        assert all(len(c) == 4 for c in expected.cells)
        assert decompose_handle(H).partition == expected

    def test_seed_determinism(self):
        spec = RandomInstanceSpec(cyclic(3), 2, 2, seed=99)
        a, pa = random_ddp_group(spec)
        b, pb = random_ddp_group(spec)
        assert [str(g) for g in a.generators] == [str(g) for g in b.generators]
        assert pa == pb

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            RandomInstanceSpec(cyclic(3), 0, 2, seed=1)

    def test_requires_transitive_inner(self):
        # the spec accepts it; make_subdirect, the generator's first step,
        # refuses it
        intrans = GroupHandle.from_generators(
            [parse_cycles("(1,2)", 4), parse_cycles("(3,4)", 4)], 4)
        spec = RandomInstanceSpec(intrans, 2, 2, seed=1)
        with pytest.raises(ValueError, match="inner group must be transitive"):
            random_ddp_group(spec)

    def test_grid_digest(self):
        # the degree, generators and truth of 72 instances whose draws fail
        # each way: an intransitive copy, a transitive copy that is too
        # small, and a decomposable group.  Any change to the random stream
        # or to an accept/reject decision changes the digest
        digest = hashlib.sha256()
        for inner in ("C3", "S3", "A4", "D8", "S4", "W2C8"):
            handle = by_name(inner)
            for r in (1, 2):
                for s in (2, 3, 4):
                    for seed in (0, 1):
                        H, truth = random_ddp_group(RandomInstanceSpec(handle, r, s, seed))
                        lines = [f"{inner} r={r} s={s} seed={seed} degree {H.degree}",
                                 *map(format_cycles, H.generators),
                                 repr([list(cell) for cell in truth.cells])]
                        digest.update("".join(f"{line}\n" for line in lines).encode())
        assert digest.hexdigest() == (
            "72d6cfe67f015abad308bdba6124e6c053195bcaf324f746706b4de35e3e8922")

    def test_many_orbits_grid_digest(self):
        # the four base groups of the many-orbits benchmark workload, at its
        # grid seeds: up to 50 factors drawn with verdicts shared across
        # factors, where test_grid_digest's two factors share few
        digest = hashlib.sha256()
        for idx, (inner, s, r) in enumerate((("C2", 2, 50), ("C3", 2, 42), ("S3", 2, 36),
                                             ("D8", 2, 26))):
            seed = 2004_11618 + idx
            H, truth = random_ddp_group(RandomInstanceSpec(by_name(inner), r, s, seed))
            lines = [f"{inner} r={r} s={s} seed={seed} degree {H.degree}",
                     *map(format_cycles, H.generators),
                     repr([list(cell) for cell in truth.cells])]
            digest.update("".join(f"{line}\n" for line in lines).encode())
        assert digest.hexdigest() == (
            "752ee891adbf3a2df4f932c6da43494f67e0a23e4aca47767527a63077a166ec")

    @staticmethod
    def c2_chains_and_draws(monkeypatch):
        """The chains one call builds for C2 s=2 r=50 at the many-orbits grid
        seed, and the distinct columns plus distinct candidates it draws."""
        built, drawn = [], []
        for module in (oracle_module, stabchain_module):
            build = module.build_chain

            def counting(gens, degree, candidates=None, build=build):
                built.append(degree)
                return build(gens, degree, candidates)
            monkeypatch.setattr(module, "build_chain", counting)
        draw = oracle_module.random_element

        def recording(chain, rng):
            drawn.append(draw(chain, rng))
            return drawn[-1]
        monkeypatch.setattr(oracle_module, "random_element", recording)
        random_ddp_group(RandomInstanceSpec(cyclic(2), 50, 2, seed=2004_11618))
        monkeypatch.undo()
        # at s = 2 every draw is two rows (a, b) and (c, d), with columns
        # {a, c} and {b, d}; it is a candidate when both columns generate C2
        columns, candidates = set(), set()
        for a, b, c, d in zip(*[iter(drawn)] * 4):
            pair = frozenset((a, c)), frozenset((b, d))
            columns.update(pair)
            if all(any(not g.is_identity() for g in column) for column in pair):
                candidates.add(frozenset(((a, b), (c, d))))
        return len(built), len(columns) + len(candidates)

    def test_each_repeated_draw_decided_once(self, monkeypatch):
        # deciding each column afresh built 469 chains for 3 distinct columns
        built, distinct = self.c2_chains_and_draws(monkeypatch)
        assert 0 < built <= distinct

    def test_no_verdict_outlives_a_call(self, monkeypatch):
        # a verdict kept past the call would spare the second call its chains
        assert self.c2_chains_and_draws(monkeypatch) == self.c2_chains_and_draws(monkeypatch)

    def test_handles_only_for_surjective_draws(self, monkeypatch):
        # make_subdirect decides surjectivity on the drawn elements, so it
        # builds a handle only for a draw that surjects onto every copy; the
        # counts include each instance's own handle.  Building one for every
        # draw, and one per copy to check it, made 641 and 2153
        built = []
        from_generators = GroupHandle.from_generators.__func__

        def counting(cls, generators, degree):
            built.append(degree)
            return from_generators(cls, generators, degree)
        inners = {name: by_name(name) for name in ("A4", "S4")}
        monkeypatch.setattr(GroupHandle, "from_generators", classmethod(counting))
        counts = {}
        for name, inner in inners.items():
            built.clear()
            for seed in range(3):
                random_ddp_group(RandomInstanceSpec(inner, 8, 4, seed))
            counts[name] = len(built)
        assert counts == {"A4": 113, "S4": 222}

    @pytest.mark.parametrize("name", ["random_ddp_A4_r2_s3", "random_ddp_D8_r17_s4"])
    def test_golden_instances(self, name):
        # every random draw of the generator, pinned by its output
        golden = json.loads((GOLDEN / f"{name}.json").read_text())
        spec = RandomInstanceSpec(by_name(golden["inner"]), golden["r"], golden["s"],
                                  golden["seed"])
        H, expected = random_ddp_group(spec)
        assert H.degree == golden["degree"]
        assert [str(g) for g in H.generators] == golden["generators"]
        assert [list(cell) for cell in expected.cells] == golden["cells"]


class TestEquivalence:
    def test_fast_vs_oracle_supports(self):
        h = running_handle()
        res = decompose_handle(h)
        oracle_partition = brute_force_decompose(h)
        assert res.partition == oracle_partition
        assert res.supports() == frozenset(
            {frozenset({1, 2, 3}), frozenset(range(4, 13))})

    def test_refinement_not_equivalent(self):
        full = decompose([parse_cycles("(1,2)", 4), parse_cycles("(3,4)", 4)], 4)
        merged = decompose([parse_cycles("(1,2)(3,4)", 4)], 4)
        assert full.supports() == frozenset({frozenset({1, 2}), frozenset({3, 4})})
        assert merged.supports() == frozenset({frozenset({1, 2, 3, 4})})


class TestOracleAgreement:
    def test_random_instances(self, audited_chains):
        rng = random.Random(31)
        for _ in range(10):
            degree = rng.randint(6, 10)
            gens = []
            for _ in range(rng.randint(1, 3)):
                images = list(range(1, degree + 1))
                rng.shuffle(images)
                gens.append(Permutation(images))
            h = GroupHandle.from_generators(gens, degree)
            if h.orbit_structure.k < 2:
                continue
            fast = decompose_handle(h, verify=True).partition
            assert fast == brute_force_decompose(h)
            assert verify_decomposition(h, fast)
        assert audited_chains

    def test_block_groups(self):
        # each generator permutes the points inside some of the group's
        # random blocks, so one generator spans several cells and a pair
        # node's component can be larger than its cell
        rng = random.Random(2004_11618)
        spanning = 0
        for _ in range(300):
            degree = rng.randint(2, 14)
            points = rng.sample(range(1, degree + 1), degree)
            blocks, i = [], 0
            while i < degree:
                size = rng.randint(2, 4)
                blocks.append(points[i:i + size])
                i += size
            gens = []
            for _ in range(rng.randint(1, 4)):
                images = list(range(1, degree + 1))
                for block in rng.sample(blocks, rng.randint(1, len(blocks))):
                    for p, q in zip(block, rng.sample(block, len(block))):
                        images[p - 1] = q
                gens.append(Permutation(images))
            h = GroupHandle.from_generators(gens, degree)
            fast = decompose_handle(h, verify=True).partition
            for pairs_first in (False, True):
                assert brute_force_decompose(h, cap=h.orbit_structure.k,
                                             pairs_first=pairs_first) == fast
            assert verify_decomposition(h, fast)
            cell_of = {j: c for c, cell in enumerate(fast.cells) for j in cell}
            spanning += any(len({cell_of[j] for j in moved_orbits(h, g)}) > 1 for g in gens)
        assert spanning >= 50
