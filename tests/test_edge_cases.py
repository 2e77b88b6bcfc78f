import random
import types

import pytest

import permdecomp
from permdecomp import (
    GroupHandle,
    OrbitPartition,
    Permutation,
    brute_force_decompose,
    compute_orbits,
    decompose,
    decompose_handle,
    parse_cycles,
    verify_decomposition,
)

from oracles import brute_finest_partition, closure, tab


class TestFixedPoints:
    def test_reported_separately_and_excluded_from_factors(self):
        gens = [parse_cycles("(1,2)", 8), parse_cycles("(4,5,6)", 8)]
        res = decompose(gens, 8)
        assert res.fixed_points == (3, 7, 8)
        assert res.partition == OrbitPartition([[1], [2]])
        assert sorted(f.order for f in res.factors) == [2, 3]
        covered = {p for f in res.factors for p in f.support}
        assert covered == {1, 2, 4, 5, 6}

    def test_only_fixed_points(self):
        res = decompose([Permutation.identity(4)], 4)
        assert res.factors == () and res.fixed_points == (1, 2, 3, 4)


class TestGeneratorHygiene:
    def test_identity_and_duplicates_filtered(self):
        g = parse_cycles("(1,2)(3,4)", 4)
        handle = GroupHandle.from_generators(
            [Permutation.identity(4), g, g, Permutation.identity(4)], 4)
        assert handle.generators == (g,)
        assert decompose_handle(handle).partition == OrbitPartition([[1, 2]])

    def test_mismatched_degrees_rejected(self):
        with pytest.raises(ValueError):
            GroupHandle.from_generators(
                [parse_cycles("(1,2)", 2), parse_cycles("(1,2)", 3)], 3)


class TestLargeDegree:
    def test_decompose_beyond_byte_range(self):
        # cycle types on a 300-point set exercise the tuple representation
        gens = [parse_cycles("(1,2,3)", 300), parse_cycles("(298,299)", 300)]
        res = decompose(gens, 300)
        assert sorted(f.order for f in res.factors) == [2, 3]
        assert res.whole_order == 6
        assert verify_decomposition(
            GroupHandle.from_generators(gens, 300), res.partition)

    def test_entangled_beyond_byte_range(self):
        g = parse_cycles("(1,2,3)(290,291,292)", 300)
        res = decompose([g], 300)
        assert res.partition == OrbitPartition([[1, 2]])


class TestMixedProducts:
    def test_diagonal_times_cycle(self):
        gens = [parse_cycles("(1,2)(3,4)", 7), parse_cycles("(5,6,7)", 7)]
        res = decompose(gens, 7)
        assert res.partition == OrbitPartition([[1, 2], [3]])
        assert sorted(f.order for f in res.factors) == [2, 3]

    def test_three_way_entanglement_collapses_to_one_cell(self):
        g = parse_cycles("(1,2)(3,4)(5,6)", 6)
        res = decompose([g], 6)
        assert res.partition == OrbitPartition([[1, 2, 3]])

    def test_partial_entanglement(self):
        # orbits 1,2 tied diagonally; orbit 3 independent on top of them
        gens = [parse_cycles("(1,2)(3,4)", 6), parse_cycles("(5,6)", 6)]
        res = decompose(gens, 6)
        assert res.partition == OrbitPartition([[1, 2], [3]])


class TestFuzzAgainstElementOracle:
    def test_forty_small_groups(self):
        rng = random.Random(77)
        checked = 0
        while checked < 40:
            degree = rng.randint(5, 10)
            gens = []
            for _ in range(rng.randint(1, 3)):
                # supports drawn from a subset of the points, so fixed
                # points and uneven orbits appear regularly
                moved = rng.sample(range(1, degree + 1), rng.randint(2, degree))
                images = moved[:]
                rng.shuffle(images)
                table = list(range(1, degree + 1))
                for src, dst in zip(moved, images):
                    table[src - 1] = dst
                gens.append(Permutation(table))
            elems = closure([tab(g) for g in gens], degree, limit=600)
            if elems is None:
                continue
            structure = compute_orbits(gens, degree)
            if structure.k < 2:
                continue
            res = decompose(gens, degree, verify=True)
            expected = brute_finest_partition(
                [tab(g) for g in gens], degree, [list(o) for o in structure.orbits])
            assert [list(c) for c in res.partition.cells] == [list(c) for c in expected]
            handle = GroupHandle.from_generators(gens, degree)
            assert brute_force_decompose(handle) == res.partition
            assert res.whole_order == len(elems)
            checked += 1


class TestPackageSurface:
    def test_all_names_exist_and_are_not_modules(self):
        for name in permdecomp.__all__:
            assert not isinstance(getattr(permdecomp, name), types.ModuleType), name
