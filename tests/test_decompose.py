import importlib
import inspect
import itertools
import json
import random
import re
import textwrap

import pytest

from permdecomp import (
    Factor,
    GroupHandle,
    InvariantViolation,
    OrbitPartition,
    Permutation,
    RandomInstanceSpec,
    StabilizerChain,
    TransversalLevel,
    build_chain,
    compute_N_generators,
    compute_orbits,
    ddpd_step,
    decompose,
    decompose_handle,
    is_member,
    parse_cycles,
    pointwise_stabilizer_level,
    random_ddp_group,
    restriction_order,
    sift,
    verify_separability,
)
from permdecomp.cli import main
from permdecomp.decompose import _first_moved_levels, _Walk, decomposition_result
from permdecomp.groupfile import write_group_file
from permdecomp.groups import by_name

from oracles import brute_finest_partition, closure, nielsen_mix, orbit_order_relabelling, tab

# the package re-exports the function decompose under the module's name
decompose_module = importlib.import_module("permdecomp.decompose")
stabchain_module = importlib.import_module("permdecomp.stabchain")

RUNNING = ["(1,2,3)(7,9,8)(10,12,11)", "(4,5,6)(7,8,9)(10,11,12)",
           "(5,6)(8,9)(11,12)", "(7,8,9)(10,11,12)"]


def running_gens():
    return [parse_cycles(s, 12) for s in RUNNING]


def random_group(rng, degree, ngens):
    gens = []
    for _ in range(ngens):
        images = list(range(1, degree + 1))
        rng.shuffle(images)
        gens.append(Permutation(images))
    return gens


def relabeled(handle, big, rng):
    # the group moved onto random points of a larger degree, so base order,
    # orbit order and point order all disagree
    points = rng.sample(range(1, big + 1), handle.degree)
    gens = []
    for g in handle.generators:
        images = list(range(1, big + 1))
        for p in range(1, handle.degree + 1):
            images[points[p - 1] - 1] = points[g.image(p) - 1]
        gens.append(Permutation(images))
    return GroupHandle.from_generators(gens, big)


def in_own_points(g, support):
    # g on its invariant point set support, with support[i - 1] relabelled i
    local = {p: i for i, p in enumerate(support, start=1)}
    return Permutation([local[g.image(p)] for p in support])


def relabelled_to_orbit_order(handle, order):
    # the group conjugated by sigma, whose smallest-element orbit order is
    # the given order of the original orbits
    structure = handle.orbit_structure
    sigma = Permutation(orbit_order_relabelling(structure.orbits, order, handle.degree))
    relabelled = GroupHandle.from_generators([g.conjugate(sigma) for g in handle.generators],
                                             handle.degree)
    assert relabelled.orbit_structure.orbits == tuple(
        tuple(sorted(map(sigma.image, structure.orbit(j)))) for j in order)
    return relabelled, sigma


class TestOrbitOrderedHandle:
    def test_running_example(self):
        h = GroupHandle.from_generators(running_gens(), 12)
        assert h.chain.base == (1, 4, 5, 7)
        assert h.orbit_base_boundaries == (1, 3, 4, 4)
        assert tuple(h.chain.strong_generators) == tuple(running_gens())

    def test_transitive_group(self):
        gens = [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2)", 5)]
        h = GroupHandle.from_generators(gens, 5)
        assert h.orbit_structure.k == 1
        assert set(h.chain.base) <= {1, 2, 3, 4, 5}
        assert h.order == 120

    def test_trivial_group(self):
        h = GroupHandle.from_generators([], 6)
        assert h.orbit_structure.k == 0 and h.chain.base == () and h.order == 1


class TestComputeN:
    def test_running_example_level_two(self):
        h = GroupHandle.from_generators(running_gens(), 12)
        n3 = compute_N_generators(h, 2)
        assert n3 and build_chain(n3, 12).order == 3
        assert all(g.support() <= {7, 8, 9} for g in n3)

    def test_running_example_level_three_trivial(self):
        h = GroupHandle.from_generators(running_gens(), 12)
        assert compute_N_generators(h, 3) == []

    def test_full_direct_product_projects_everything(self):
        # S3 x S3 on disjoint points: the stabilizer of the first orbit
        # still projects onto the whole second constituent
        gens = [parse_cycles("(1,2,3)", 6), parse_cycles("(1,2)", 6),
                parse_cycles("(4,5,6)", 6), parse_cycles("(4,5)", 6)]
        h = GroupHandle.from_generators(gens, 6)
        n2 = compute_N_generators(h, 1)
        assert build_chain(n2, 6).order == 6

    def test_index_range(self):
        h = GroupHandle.from_generators(running_gens(), 12)
        with pytest.raises(ValueError):
            compute_N_generators(h, 4)


def smallest_orbit(x, structure):
    # k + 1 for an element that moves no point: it passes every step
    return min((structure.orbit_of_point(q) for q in x.support()), default=structure.k + 1)


class TestSifteeCells:
    # the cell a step assigns an element is the cell of the smallest orbit
    # it moves; the step's output tuple lines up with its input

    @staticmethod
    def step_cells(h, i, elements, p):
        out, nxt = ddpd_step(h, i, elements, p)
        structure = h.orbit_structure
        cells = {}
        for x in elements:
            j = smallest_orbit(x, structure)
            if j <= i:
                cells[x] = p.cell_of(j)
        return cells, out, nxt

    def stage_two_cells(self):
        # the running generators are a 2-separable strong generating set
        h = GroupHandle.from_generators(running_gens(), 12)
        cells, out, p = self.step_cells(h, 2, tuple(running_gens()), OrbitPartition([[1], [2]]))
        assert verify_separability(out, p, h.orbit_structure)
        return cells, out

    def test_x1_at_stage_two(self):
        cells, _ = self.stage_two_cells()
        assert cells[running_gens()[0]] == (1,)

    def test_x3_at_stage_two(self):
        cells, _ = self.stage_two_cells()
        assert cells[running_gens()[2]] == (2,)

    def test_x3_at_stage_three(self):
        h = GroupHandle.from_generators(running_gens(), 12)
        elements, p = h.chain.strong_generators, OrbitPartition([[1]])
        for i in (1, 2):
            elements, p = ddpd_step(h, i, elements, p)
        assert p == OrbitPartition([[1], [2, 3]])
        cells, out, p4 = self.step_cells(h, 3, elements, p)
        assert verify_separability(out, p4, h.orbit_structure)
        assert cells[running_gens()[2]] == (2, 3)

    def test_prefix_fixing_element_passes_unsifted(self):
        cells, out = self.stage_two_cells()
        x4 = running_gens()[3]
        assert x4 not in cells
        assert out[3] == x4


class TestStepAlignment:
    # position m of a step's output is element m's siftee, or element m
    # itself when it fixes orbits 1..i; the cells merged into {i+1} are those
    # of the originals whose siftees move orbit i+1

    @staticmethod
    def assert_aligned_walk(h):
        structure = h.orbit_structure
        elements, p = h.chain.strong_generators, OrbitPartition([[1]])
        merges = 0
        for i in range(1, structure.k):
            out, nxt = ddpd_step(h, i, elements, p)
            assert len(out) == len(elements)
            marked = set()
            for x, siftee in zip(elements, out):
                j = smallest_orbit(x, structure)
                if j > i:
                    assert siftee is x
                elif siftee.moves_any(structure.orbit(i + 1)):
                    marked.update(p.cell_of(j))
            assert set(next(c for c in nxt.cells if i + 1 in c)) == marked | {i + 1}
            merges += bool(marked)
            elements, p = out, nxt
        return merges

    @pytest.mark.parametrize("inner, r, s, seed", [("A4", 3, 3, 4), ("S4", 2, 3, 9)])
    def test_alignment_across_the_bytes_tuple_boundary(self, inner, r, s, seed):
        base_group, _ = random_ddp_group(RandomInstanceSpec(by_name(inner), r, s, seed))
        rng = random.Random(seed)
        for big in (255, 256, 257):
            h = relabeled(base_group, big, rng)
            # the same group from generators that act on several factors at once
            gens = nielsen_mix([tab(g) for g in h.generators], rng, 2 * len(h.generators))
            mixed = GroupHandle.from_generators([Permutation(g) for g in gens], big)
            assert self.assert_aligned_walk(h) > 0
            assert self.assert_aligned_walk(mixed) > 0


class TestFirstMovedBasePoint:
    # the orbit of an element's first moved base point is the smallest
    # orbit in its support, for strong generators and for every siftee, and
    # a siftee's first moved base level is its input's

    @pytest.mark.parametrize("inner, r, s, seed", [("A4", 3, 3, 4), ("S4", 2, 3, 9)])
    def test_rule_across_the_bytes_tuple_boundary(self, inner, r, s, seed):
        base_group, _ = random_ddp_group(RandomInstanceSpec(by_name(inner), r, s, seed))
        rng = random.Random(seed)
        for big in (255, 256, 257):
            h = relabeled(base_group, big, rng)
            structure, base = h.orbit_structure, h.chain.base
            assert len(base) > structure.k  # several base points per orbit

            def orbit_at(level):
                # k + 1 past the base, as smallest_orbit gives for the identity
                return (structure.orbit_of_point(base[level - 1]) if level <= len(base)
                        else structure.k + 1)

            strong = h.chain.strong_generators
            assert ([orbit_at(t) for t in _first_moved_levels(strong, base)]
                    == [smallest_orbit(x, structure) for x in strong])
            elements, p = strong, OrbitPartition([[1]])
            siftees = 0
            for i in range(1, structure.k):
                out, nxt = ddpd_step(h, i, elements, p)
                start = pointwise_stabilizer_level(h, i)
                for x, siftee, level in zip(elements, out, _first_moved_levels(elements, base)):
                    j = smallest_orbit(x, structure)
                    if j > i:
                        # fixes the prefix's base points, so it is not sifted
                        assert level >= start and siftee is x
                        continue
                    assert level < start and orbit_at(level) == j
                    assert smallest_orbit(siftee, structure) == j
                    assert _first_moved_levels([siftee], base) == (level,)
                    siftees += 1
                elements, p = out, nxt
            assert siftees > 0


class TestDdpdStep:
    def test_stage_one_splits_first_two_orbits(self):
        h = GroupHandle.from_generators(running_gens(), 12)
        x2, p2 = ddpd_step(h, 1, h.chain.strong_generators, OrbitPartition([[1]]))
        assert p2 == OrbitPartition([[1], [2]])
        assert verify_separability(x2, p2, h.orbit_structure)

    def test_stage_two_matches_walkthrough(self):
        h = GroupHandle.from_generators(running_gens(), 12)
        x2, p = ddpd_step(h, 1, h.chain.strong_generators, OrbitPartition([[1]]))
        x3, p3 = ddpd_step(h, 2, x2, p)
        assert p3 == OrbitPartition([[1], [2, 3]])
        assert verify_separability(x3, p3, h.orbit_structure)
        expected_x3 = {parse_cycles(s, 12) for s in
                       ["(1,2,3)", "(4,5,6)", "(5,6)(8,9)(11,12)", "(7,8,9)(10,11,12)"]}
        assert set(x3) == expected_x3
        structure = h.orbit_structure
        moved = {str(x): siftee.moves_any(structure.orbit(3)) for x, siftee in zip(x2, x3)
                 if smallest_orbit(x, structure) <= 2}
        assert moved["(5,6)(8,9)(11,12)"] is True

    def test_stage_three_merges_last_orbit(self):
        h = GroupHandle.from_generators(running_gens(), 12)
        elements, p = h.chain.strong_generators, OrbitPartition([[1]])
        for i in (1, 2, 3):
            elements, p = ddpd_step(h, i, elements, p)
            assert verify_separability(elements, p, h.orbit_structure)
        assert p == OrbitPartition([[1], [2, 3, 4]])

    def test_stage_mismatch_rejected(self):
        h = GroupHandle.from_generators(running_gens(), 12)
        with pytest.raises(ValueError):
            ddpd_step(h, 2, h.chain.strong_generators, OrbitPartition([[1]]))

    def test_step_past_the_last_orbit_rejected(self):
        h = GroupHandle.from_generators(running_gens(), 12)
        elements, p = h.chain.strong_generators, OrbitPartition([[1]])
        for i in (1, 2, 3):
            elements, p = ddpd_step(h, i, elements, p)
        with pytest.raises(ValueError, match=r"1\.\.3"):
            ddpd_step(h, 4, elements, p)

    def test_each_step_keeps_a_strong_generating_set(self):
        h = GroupHandle.from_generators(running_gens(), 12)
        elements, p = h.chain.strong_generators, OrbitPartition([[1]])
        for i in (1, 2, 3):
            elements, p = ddpd_step(h, i, elements, p)
            assert isinstance(elements, tuple)
            assert verify_separability(elements, p, h.orbit_structure)
            rebuilt = build_chain(list(elements), 12)
            assert rebuilt.order == h.order


class TestVerifySeparability:
    def test_original_set_two_separable(self):
        h = GroupHandle.from_generators(running_gens(), 12)
        assert verify_separability(running_gens(), OrbitPartition([[1], [2]]), h.orbit_structure)

    def test_original_set_not_three_separable(self):
        h = GroupHandle.from_generators(running_gens(), 12)
        assert not verify_separability(running_gens(), OrbitPartition([[1], [2, 3]]),
                                       h.orbit_structure)

    def test_single_cell_always_separable(self):
        h = GroupHandle.from_generators(running_gens(), 12)
        assert verify_separability(running_gens(), OrbitPartition([[1]]), h.orbit_structure)

    @staticmethod
    def separable_by_supports(elements, partition, structure):
        # the definition on each element's whole support, point by point
        i = partition.max_index
        for x in elements:
            orbits = {structure.orbit_of_point(p) for p in x.support()}
            if len({partition.cell_of(j) for j in orbits if j is not None and j <= i}) > 1:
                return False
        return True

    # every state of plain and mixed walks on both sides of the bytes/tuple
    # cutoff, judged against the walk's partition (separable), the
    # partition into singletons (not, once the walk has merged) and with the
    # input generators, which often act on several cells
    @pytest.mark.parametrize("inner, r, s, seed", [("A4", 3, 3, 4), ("S4", 2, 3, 9)])
    def test_matches_the_support_definition(self, inner, r, s, seed):
        base_group, _ = random_ddp_group(RandomInstanceSpec(by_name(inner), r, s, seed))
        rng = random.Random(seed)
        verdicts = set()
        for big in (255, 256, 257):
            h = relabeled(base_group, big, rng)
            gens = nielsen_mix([tab(g) for g in h.generators], rng, 2 * len(h.generators))
            mixed = GroupHandle.from_generators([Permutation(g) for g in gens], big)
            for handle in (h, mixed):
                structure = handle.orbit_structure
                elements, p = handle.chain.strong_generators, OrbitPartition([[1]])
                for i in range(1, structure.k + 1):
                    singletons = OrbitPartition([[j] for j in range(1, i + 1)])
                    for judged, partition in ((elements, p), (elements, singletons),
                                              (handle.generators, p)):
                        verdict = verify_separability(judged, partition, structure)
                        assert verdict == self.separable_by_supports(judged, partition, structure)
                        verdicts.add(verdict)
                    if i < structure.k:
                        elements, p = ddpd_step(handle, i, elements, p)
        assert verdicts == {True, False}


# instances on which a walk that never merges cells yields a wrong answer
SEEDED = [("A4", 3, 3, 2), ("C3", 4, 2, 3), ("D8", 2, 3, 1)]


def instance_id(instance):
    return instance if isinstance(instance, str) else "{}-r{}-s{}-seed{}".format(*instance)


def seeded_handle(inner, r, s, seed):
    handle, _ = random_ddp_group(RandomInstanceSpec(by_name(inner), r, s, seed))
    return handle


def instance_handle(instance):
    return (GroupHandle.from_generators(running_gens(), 12) if instance == "running"
            else seeded_handle(*instance))


class TestCarriedLevels:
    # a step hands on its elements' first moved base levels and the stop
    # level of each position's last sift with the chain it read them
    # against; the next step reads them only off its own chain, and the
    # stops only when it starts at or past the step that handed them on

    @staticmethod
    def assert_carried_walk(h, other):
        chain, base = h.chain, h.chain.base
        elements, p = chain.strong_generators, OrbitPartition([[1]])
        misread = misstopped = skipped = 0
        for i in range(1, h.orbit_structure.k):
            start = pointwise_stabilizer_level(h, i)
            out, nxt = ddpd_step(h, i, elements, p)
            assert out.chain is chain and out.start == start
            assert out.levels == _first_moved_levels(out, base)
            # a skipped sift would have returned the siftee and its stop
            for y, level, stop in zip(out, out.levels, out.stops):
                assert sift(chain, y, start) == (y, stop) if level < start else stop == 0
            if isinstance(elements, _Walk):
                skipped += sum(level < start <= stop
                               for level, stop in zip(elements.levels, elements.stops))
            assert ddpd_step(h, i, tuple(elements), p) == (out, nxt)
            # levels that would leave every element unsifted: rescanned when
            # carried from another handle's chain, read when from this one's
            unsifted, unstopped = (len(base) + 1,) * len(elements), (0,) * len(elements)
            assert ddpd_step(h, i, _Walk(elements, unsifted, unstopped, other.chain, 1),
                             p) == (out, nxt)
            misread += ddpd_step(h, i, _Walk(elements, unsifted, unstopped, chain, 1),
                                 p)[1] != nxt
            # stops that would skip every sift: ignored when carried from
            # another handle's chain or from a step past this one's start
            levels = _first_moved_levels(elements, base)
            consumed = (len(base) + 1,) * len(elements)
            assert ddpd_step(h, i, _Walk(elements, levels, consumed, other.chain, 1),
                             p) == (out, nxt)
            assert ddpd_step(h, i, _Walk(elements, levels, consumed, chain, start + 1),
                             p) == (out, nxt)
            misstopped += ddpd_step(h, i, _Walk(elements, levels, consumed, chain, start),
                                    p)[1] != nxt
            elements, p = out, nxt
        assert misread > 0 and skipped > 0
        # unsifted, a strong generator of plain generators still acts in one
        # factor, so only a mixed walk can misread stops
        return misstopped

    @pytest.mark.parametrize("inner, r, s, seed", [("A4", 3, 3, 4), ("S4", 2, 3, 9)])
    def test_levels_across_the_bytes_tuple_boundary(self, inner, r, s, seed):
        base_group, _ = random_ddp_group(RandomInstanceSpec(by_name(inner), r, s, seed))
        rng = random.Random(seed)
        for big in (255, 256, 257):
            plain = relabeled(base_group, big, rng)
            gens = nielsen_mix([tab(g) for g in plain.generators], rng, 2 * len(plain.generators))
            mixed = GroupHandle.from_generators([Permutation(g) for g in gens], big)
            self.assert_carried_walk(plain, mixed)
            assert self.assert_carried_walk(mixed, plain) > 0

    def test_stops_on_the_mixed_degree_288_chain(self):
        # wide's D8 s=4 r=18 group (degree 288, t0 = 32) after 2 * |gens|
        # seeded Nielsen moves: one support component, so its sweep crosses t0
        plain = seeded_handle("D8", 18, 4, 2004_11620)
        gens = nielsen_mix([tab(g) for g in plain.generators], random.Random(1),
                           2 * len(plain.generators))
        mixed = GroupHandle.from_generators([Permutation(g) for g in gens], plain.degree)
        assert mixed.degree == 288
        assert self.assert_carried_walk(mixed, plain) > 0

    def test_sifts_on_the_wide_d8_shape(self, monkeypatch):
        # wide's D8 s=4 r=16 group (degree 256): 5,032 walk sifts when each
        # step sifts every strong generator that moves the prefix, 229 when
        # it skips those whose carried stop is at or past its start level
        sifts = 0
        original = decompose_module.sift

        def counting_sift(*args):
            nonlocal sifts
            sifts += 1
            return original(*args)

        handle = seeded_handle("D8", 16, 4, 2004_11618)
        monkeypatch.setattr(decompose_module, "sift", counting_sift)
        decompose_handle(handle)
        assert 0 < sifts <= 400

    @pytest.mark.parametrize("instance", ["running"] + SEEDED, ids=instance_id)
    def test_one_scan_per_strong_generator(self, monkeypatch, instance):
        handle = instance_handle(instance)
        scanned = []
        scan = decompose_module._first_moved_levels

        def counting_scan(elements, base):
            scanned.extend(elements)
            return scan(elements, base)

        monkeypatch.setattr(decompose_module, "_first_moved_levels", counting_scan)
        decompose_handle(handle)
        assert handle.orbit_structure.k > 1
        assert scanned == list(handle.chain.strong_generators)


def residue_dropping_build_chain():
    """``build_chain`` with one fault in its sweep: once the sweep holds more
    than 3·|gens|/2 + 2 strong generators it drops each further residue, so
    the Schreier pair that produced it counts as checked and the chain can
    come out short."""
    source = textwrap.dedent(inspect.getsource(stabchain_module._sweep))
    sound = "if j == m:"
    assert source.count(sound) == 1
    namespace = dict(vars(stabchain_module))
    exec(source.replace(sound, "if j == m or len(strong) > 3 * len(gens) / 2 + 2:"),
         namespace)
    # a build_chain and merge whose globals hold the faulty sweep
    for function in (stabchain_module._merged, build_chain):
        exec(textwrap.dedent(inspect.getsource(function)), namespace)
    return namespace["build_chain"]


class TestDecompose:
    def test_running_example(self):
        res = decompose(running_gens(), 12, verify=True)
        assert res.partition == OrbitPartition([[1], [2, 3, 4]])
        assert sorted(f.order for f in res.factors) == [3, 18]
        assert res.whole_order == 54
        small = next(f for f in res.factors if f.order == 3)
        assert small.support == (1, 2, 3)

    def test_disjoint_transpositions(self):
        gens = [parse_cycles("(1,2)", 4), parse_cycles("(3,4)", 4)]
        res = decompose(gens, 4)
        assert [f.order for f in res.factors] == [2, 2]

    def test_transitive_single_factor(self):
        gens = [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2)", 5)]
        res = decompose(gens, 5)
        assert len(res.factors) == 1 and res.factors[0].order == 120

    def test_diagonal_indecomposable(self):
        res = decompose([parse_cycles("(1,2)(3,4)", 4)], 4)
        assert res.partition == OrbitPartition([[1, 2]])

    def test_trivial_group(self):
        res = decompose([], 5)
        assert res.factors == () and res.whole_order == 1
        assert res.fixed_points == (1, 2, 3, 4, 5)

    def test_matches_exhaustive_partition_on_small_groups(self):
        rng = random.Random(23)
        checked = 0
        while checked < 15:
            degree = rng.randint(5, 9)
            gens = random_group(rng, degree, rng.randint(1, 2))
            if closure([tab(g) for g in gens], degree, limit=400) is None:
                continue
            structure = compute_orbits(gens, degree)
            if structure.k < 2:
                continue
            res = decompose(gens, degree, verify=True)
            expected = brute_finest_partition([tab(g) for g in gens], degree,
                                              [list(o) for o in structure.orbits])
            assert [list(c) for c in res.partition.cells] == [list(c) for c in expected]
            checked += 1

    def test_factor_membership_of_restricted_generators(self):
        gens = running_gens()
        res = decompose(gens, 12)
        for factor in res.factors:
            for g in gens:
                assert is_member(factor.handle.chain, in_own_points(g, factor.support))

    @pytest.mark.parametrize("instance", ["running"] + SEEDED, ids=instance_id)
    def test_factor_generators_lie_in_the_group(self, instance):
        h = instance_handle(instance)
        for factor in decompose_handle(h).factors:
            for g in factor.generators:
                assert is_member(h.chain, g)
                assert g.support() <= set(factor.support)

    def test_product_law_and_disjoint_supports(self):
        res = decompose(running_gens(), 12)
        product = 1
        seen = set()
        for f in res.factors:
            product *= f.order
            assert not (seen & set(f.support))
            seen |= set(f.support)
        assert product == res.whole_order
        assert seen == set(range(1, 13))

    def test_orbit_reordering_preserves_supports(self):
        gens = running_gens()
        base = decompose(gens, 12).supports()
        handle = GroupHandle.from_generators(gens, 12)
        rng = random.Random(5)
        for _ in range(6):
            order = list(range(1, 5))
            rng.shuffle(order)
            relabelled, sigma = relabelled_to_orbit_order(handle, order)
            sigma_inv = sigma.inverse()
            supports = decompose(relabelled.generators, 12, verify=True).supports()
            assert frozenset(frozenset(map(sigma_inv.image, sup)) for sup in supports) == base

    def test_conjugation_maps_supports(self):
        gens = running_gens()
        base = decompose(gens, 12).supports()
        rng = random.Random(9)
        images = list(range(1, 13))
        rng.shuffle(images)
        s = Permutation(images)
        conj = decompose([g.conjugate(s) for g in gens], 12).supports()
        assert conj == frozenset(frozenset(s.image(p) for p in sup) for sup in base)

    def test_monotone_refinement(self):
        # cells not merged at a step survive verbatim into the next partition
        h = GroupHandle.from_generators(running_gens(), 12)
        elements, p = h.chain.strong_generators, OrbitPartition([[1]])
        for i in (1, 2, 3):
            elements, nxt = ddpd_step(h, i, elements, p)
            merged = next(c for c in nxt.cells if i + 1 in c)
            for cell in p.cells:
                assert cell in nxt.cells or set(cell) <= set(merged)
            p = nxt


class TestFactorsFromTheChain:
    @pytest.mark.parametrize("instance", ["running"] + SEEDED, ids=instance_id)
    def test_never_merging_walk_is_caught(self, monkeypatch, instance):
        handle = (GroupHandle.from_generators(running_gens(), 12) if instance == "running"
                  else seeded_handle(*instance))
        step = decompose_module.ddpd_step

        def never_merging_step(handle, i, elements, partition):
            next_elements, _ = step(handle, i, elements, partition)
            return next_elements, OrbitPartition(list(partition.cells) + [[i + 1]])

        monkeypatch.setattr(decompose_module, "ddpd_step", never_merging_step)
        with pytest.raises(InvariantViolation, match="separable"):
            decompose_handle(handle)

    @pytest.mark.parametrize("instance", ["running"] + SEEDED, ids=instance_id)
    def test_dropped_element_walk_keeps_orders(self, monkeypatch, instance):
        # a walk that loses a strong generator still finds the right cells;
        # the factors must not inherit the loss
        handle = instance_handle(instance)
        last = handle.orbit_structure.k - 1
        step = decompose_module.ddpd_step

        def dropping_step(handle, i, elements, partition):
            next_elements, next_partition = step(handle, i, elements, partition)
            if i == last:
                next_elements = next_elements[:-1]
            return next_elements, next_partition

        monkeypatch.setattr(decompose_module, "ddpd_step", dropping_step)
        for factor in decompose_handle(handle).factors:
            assert factor.handle.order == factor.order

    @pytest.mark.parametrize("instance", ["running", SEEDED[0]], ids=instance_id)
    def test_verify_checks_each_state_once(self, monkeypatch, instance):
        # states 2..k, one call each; state 1 is a single cell
        handle = instance_handle(instance)
        calls = []
        check = decompose_module.verify_separability

        def counting_check(elements, partition, structure):
            calls.append(partition.max_index)
            return check(elements, partition, structure)

        monkeypatch.setattr(decompose_module, "verify_separability", counting_check)
        decompose_handle(handle, verify=True)
        assert calls == list(range(2, handle.orbit_structure.k + 1))

    @pytest.mark.parametrize("instance", ["running"] + SEEDED, ids=instance_id)
    def test_non_separable_last_state_is_caught(self, monkeypatch, instance):
        # the product of two elements acting in different cells lies in the
        # group, so the membership certificate passes; only the scan of the
        # walk's final state sees it
        handle = instance_handle(instance)
        structure = handle.orbit_structure
        last = structure.k - 1
        step = decompose_module.ddpd_step
        finest = decompose_handle(handle).partition

        def smuggling_step(handle, i, elements, partition):
            next_elements, next_partition = step(handle, i, elements, partition)
            if i == last:
                by_cell = {}
                for x in next_elements:
                    cells = {next_partition.cell_of(structure.orbit_of_point(p))
                             for p in x.support()}
                    if len(cells) == 1:
                        by_cell.setdefault(cells.pop(), x)
                a, b = list(by_cell.values())[:2]
                next_elements += (a * b,)
            return next_elements, next_partition

        monkeypatch.setattr(decompose_module, "ddpd_step", smuggling_step)
        assert decompose_handle(handle).partition == finest
        with pytest.raises(InvariantViolation, match=f"not {last + 1}-separable"):
            decompose_handle(handle, verify=True)

    @staticmethod
    def assert_orders_agree(handle):
        result = decompose_handle(handle)
        for factor in result.factors:
            assert factor.order == restriction_order(handle, factor.orbit_indices)
            assert factor.order == factor.handle.order

    def test_orders_under_every_orbit_order(self):
        handle = GroupHandle.from_generators(running_gens(), 12)
        for order in itertools.permutations(range(1, 5)):
            self.assert_orders_agree(relabelled_to_orbit_order(handle, order)[0])

    @pytest.mark.parametrize("instance", SEEDED, ids=instance_id)
    def test_orders_across_the_bytes_tuple_boundary(self, instance):
        base_group = seeded_handle(*instance)
        rng = random.Random(instance[3])
        for big in (255, 256, 257):
            self.assert_orders_agree(relabeled(base_group, big, rng))

    @pytest.mark.parametrize("instance", SEEDED, ids=instance_id)
    def test_factor_handles_live_in_their_own_points(self, instance):
        base_group = seeded_handle(*instance)
        rng = random.Random(instance[3])
        for big in (255, 256, 257, 300):
            handle = relabeled(base_group, big, rng)
            for factor in decompose_handle(handle).factors:
                own = factor.handle
                assert own.degree == len(factor.support)
                assert own.order == factor.order
                for g in handle.generators:
                    assert is_member(own.chain, in_own_points(g, factor.support))

    def test_chains_built(self, monkeypatch):
        handle = seeded_handle(*SEEDED[0])
        calls = []
        build = stabchain_module.build_chain

        def counting_build(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(stabchain_module, "build_chain", counting_build)
        decompose(handle.generators, handle.degree)
        assert len(calls) == 1
        calls.clear()
        # verify=True audits the one chain and builds no other
        decompose(handle.generators, handle.degree, verify=True)
        assert len(calls) == 1

    @pytest.mark.parametrize("instance", ["running", SEEDED[0]], ids=instance_id)
    def test_restriction_order_mismatch_is_caught(self, monkeypatch, tmp_path, capsys,
                                                  instance):
        # a chain whose last level lists a generator that moves the first
        # base point breaks the audit's second law; the walk, the factor
        # orders and the certificate read no level generator, so the default
        # path answers as before and only --check fails
        handle = instance_handle(instance)
        expected = decompose_handle(handle)
        path = tmp_path / "group.grp"
        write_group_file(str(path), handle.degree, handle.generators)
        assert main(["decompose", str(path)]) == 0
        document = capsys.readouterr().out
        build = stabchain_module.build_chain

        def rogue_build(gens, degree, candidates=None):
            chain = build(gens, degree, candidates)
            *levels, last = chain.levels
            first = chain.base[0]
            rogue = next(x for x in chain.strong_generators if x.image(first) != first)
            levels.append(TransversalLevel(last.base_point, last.coset_reps,
                                           last.level_generators + (rogue,)))
            return StabilizerChain(degree, levels, chain.strong_generators)

        monkeypatch.setattr(stabchain_module, "build_chain", rogue_build)
        assert decompose_handle(instance_handle(instance)) == expected
        m = len(handle.chain.levels)
        n = len(handle.chain.levels[-1].level_generators) + 1
        law = f"chain audit: level {m}: generator {n} moves base point {handle.chain.base[0]}"
        with pytest.raises(InvariantViolation, match=re.escape(law)):
            decompose_handle(instance_handle(instance), verify=True)
        assert main(["decompose", str(path)]) == 0
        assert capsys.readouterr().out == document
        assert main(["decompose", "--check", str(path)]) == 2
        assert law in capsys.readouterr().err

    @pytest.mark.parametrize("inner, r, s, seed", [("A4", 4, 4, 2004_11626),
                                                   ("D8", 8, 4, 2004_11627)])
    def test_residue_dropping_builder_fails_the_check(self, monkeypatch, tmp_path, capsys,
                                                      inner, r, s, seed):
        # with mixed generators the broken chain gives a wrong partition that
        # passes the certificate and the separability scans; a rebuild by the
        # same builder agrees with it, and only the audit of the chain fails
        handle, expected = random_ddp_group(RandomInstanceSpec(by_name(inner), r, s, seed))
        gens = nielsen_mix([tab(g) for g in handle.generators], random.Random(seed),
                           3 * len(handle.generators))
        path = tmp_path / "mixed.grp"
        write_group_file(str(path), handle.degree, [Permutation(g) for g in gens])
        monkeypatch.setattr(stabchain_module, "build_chain", residue_dropping_build_chain())
        assert main(["decompose", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["cells"] != [list(c) for c in expected.cells]
        assert main(["decompose", "--check", str(path)]) == 2
        assert "invariant violated: chain audit: " in capsys.readouterr().err

    def test_factor_built_without_a_chain(self):
        handle = GroupHandle.from_generators(running_gens(), 12)
        for cell, support in (((1,), (1, 2, 3)), ((2, 3, 4), tuple(range(4, 13)))):
            restricted = (g.restrict(support) for g in handle.generators)
            gens = tuple(g for g in restricted if not g.is_identity())
            factor = Factor(cell, support, gens, restriction_order(handle, cell))
            assert factor.handle.order == factor.order


class TestDecompositionResult:
    @pytest.mark.parametrize("cells", [[[1], [2], [3], [4]], [[1], [2, 3], [4]]])
    def test_cells_carrying_no_product_are_rejected(self, cells):
        handle = GroupHandle.from_generators(running_gens(), 12)
        with pytest.raises(InvariantViolation, match="is not in the group"):
            decomposition_result(handle, OrbitPartition(cells))

    @pytest.mark.parametrize("cells, orders", [([[1], [2, 3, 4]], [3, 18]),
                                               ([[1, 2, 3, 4]], [54])])
    def test_product_cells_are_accepted(self, cells, orders):
        handle = GroupHandle.from_generators(running_gens(), 12)
        result = decomposition_result(handle, OrbitPartition(cells))
        assert [f.order for f in result.factors] == orders
        for factor in result.factors:
            assert factor.handle.order == factor.order

    def test_partition_short_of_the_last_orbit(self):
        handle = GroupHandle.from_generators(running_gens(), 12)
        with pytest.raises(ValueError, match="1..4"):
            decomposition_result(handle, OrbitPartition([[1], [2, 3]]))


class TestOrbitPartition:
    def test_canonical_form(self):
        p = OrbitPartition([[3, 2], [1]])
        assert p.cells == ((1,), (2, 3))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            OrbitPartition([[1, 2], [2, 3]])

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            OrbitPartition([[1], [3]])

    def test_rejects_empty_cell(self):
        with pytest.raises(ValueError, match="empty cell"):
            OrbitPartition([[1], []])

    def test_cell_lookup(self):
        p = OrbitPartition([[1], [2, 3]])
        assert p.cell_of(3) == (2, 3) and p.max_index == 3

    def test_equal_partitions_hash_equal(self):
        p, q = OrbitPartition([[1], [2, 3]]), OrbitPartition([[3, 2], [1]])
        assert p == q and hash(p) == hash(q)
        assert {p, q, OrbitPartition([[1, 2, 3]])} == {q, OrbitPartition([[3, 1, 2]])}

    def test_unequal_to_a_non_partition(self):
        p = OrbitPartition([[1], [2, 3]])
        assert p != ((1,), (2, 3)) and p != "{1}|{2,3}"
