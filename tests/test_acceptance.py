"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines and timings.
"""

import random
import statistics
import time

import permdecomp.oracle as oracle_module
from permdecomp import (
    GroupHandle,
    OrbitPartition,
    OrderCapExceeded,
    Permutation,
    RandomInstanceSpec,
    StabilizerChain,
    TransversalLevel,
    alternating,
    brute_force_decompose,
    build_chain,
    compute_N_generators,
    count_conjugacy_classes,
    count_conjugacy_classes_via_ddpd,
    cyclic,
    ddpd_step,
    decompose,
    decompose_handle,
    derived_subgroup,
    derived_subgroup_via_ddpd,
    dihedral,
    parse_cycles,
    random_ddp_group,
    sift,
    symmetric,
    verify_decomposition,
)

from oracles import orbit_order_relabelling

RUNNING = ["(1,2,3)(7,9,8)(10,12,11)", "(4,5,6)(7,8,9)(10,11,12)",
           "(5,6)(8,9)(11,12)", "(7,8,9)(10,11,12)"]


def running_gens():
    return [parse_cycles(s, 12) for s in RUNNING]


def check_structural_laws(handle, result, oracle_scale):
    """Criterion 6 laws, applied to every generated instance."""
    product = 1
    seen = set()
    for f in result.factors:
        product *= f.order
        assert not (seen & set(f.support)), "factor supports overlap"
        seen |= set(f.support)
    assert product == handle.order, "factor order product law violated"
    assert seen == set(handle.orbit_structure.support()), "supports must cover Supp(H)"
    assert verify_decomposition(handle, result.partition)
    if oracle_scale:
        for cell in result.partition.cells:
            if len(cell) < 2:
                continue
            refined = [c for c in result.partition.cells if c != cell]
            refined.append((cell[0],))
            refined.append(tuple(cell[1:]))
            assert not verify_decomposition(handle, OrbitPartition(refined)), \
                f"refinement of cell {cell} wrongly accepted"


def test_criterion_1_running_example_reproduction():
    start = time.perf_counter()
    gens = running_gens()
    handle = GroupHandle.from_generators(gens, 12)

    assert handle.orbit_structure.orbits == ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12))
    assert handle.chain.base == (1, 4, 5, 7)

    x2, p2 = ddpd_step(handle, 1, handle.chain.strong_generators, OrbitPartition([[1]]))
    assert p2 == OrbitPartition([[1], [2]])
    x3, p3 = ddpd_step(handle, 2, x2, p2)
    assert p3 == OrbitPartition([[1], [2, 3]])
    expected_x3 = {parse_cycles(s, 12) for s in
                   ["(1,2,3)", "(4,5,6)", "(5,6)(8,9)(11,12)", "(7,8,9)(10,11,12)"]}
    assert set(x3) == expected_x3

    n3 = compute_N_generators(handle, 2)
    assert build_chain(n3, 12).order == 3
    assert compute_N_generators(handle, 3) == []

    result = decompose_handle(handle)
    assert result.partition == OrbitPartition([[1], [2, 3, 4]])
    assert result.whole_order == 54
    assert sorted(f.order for f in result.factors) == [3, 18]

    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"took {elapsed:.3f}s"
    print(f"\nPASS criterion 1: running example reproduced exactly in {elapsed * 1000:.1f} ms")


def test_criterion_2_sifting_reproduction():
    reps1 = {
        1: Permutation.identity(5),
        2: parse_cycles("(1,2)(3,5)", 5),
        3: parse_cycles("(1,3,5,2,4)", 5),
        4: parse_cycles("(1,4,2,5,3)", 5),
        5: parse_cycles("(1,5,4,3,2)", 5),
    }
    reps2 = {2: Permutation.identity(5), 5: parse_cycles("(2,5)(3,4)", 5)}
    gens = [parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(2,5)(3,4)", 5)]
    chain = StabilizerChain(5, [TransversalLevel(1, reps1, gens),
                                TransversalLevel(2, reps2, gens[1:])], gens)
    siftee, stop = sift(chain, parse_cycles("(1,2,4,5)", 5))
    assert str(siftee) == "(2,4,3,5)" and stop == 2
    print("\nPASS criterion 2: pinned-transversal sift of (1,2,4,5) gives (2,4,3,5)")


def test_criterion_3_oracle_agreement():
    inners = {"C3": cyclic(3), "D8": dihedral(8), "A4": alternating(4), "S4": symmetric(4)}
    start = time.perf_counter()
    count = 0
    for name, inner in inners.items():
        for r in (2, 3, 4):
            for s in (2, 3):
                for seed in range(1, 10):
                    handle, expected = random_ddp_group(RandomInstanceSpec(inner, r, s, seed))
                    result = decompose_handle(handle)
                    oracle = brute_force_decompose(handle)
                    assert result.partition == oracle == expected, \
                        f"mismatch on {name} r={r} s={s} seed={seed}"
                    check_structural_laws(handle, result, oracle_scale=True)
                    count += 1
    elapsed = time.perf_counter() - start
    assert count >= 200
    assert elapsed < 120, f"took {elapsed:.1f}s"
    print(f"\nPASS criterion 3: {count} instances, fast == oracle == ground truth, "
          f"zero mismatches in {elapsed:.1f}s")


def test_criterion_4_ground_truth_recovery():
    inners = {"D8": dihedral(8), "A4": alternating(4), "S4": symmetric(4)}
    grid = [(2, 2), (3, 3), (4, 4), (6, 3), (10, 4)]
    count = 0
    start = time.perf_counter()
    for name, inner in inners.items():
        for r, s in grid:
            for seed in range(1, 8):
                handle, expected = random_ddp_group(RandomInstanceSpec(inner, r, s, seed))
                result = decompose_handle(handle)
                assert result.partition == expected, \
                    f"wrong cells on {name} r={r} s={s} seed={seed}"
                assert len(result.partition.cells) == r
                assert all(len(c) == s for c in result.partition.cells)
                check_structural_laws(handle, result, oracle_scale=False)
                count += 1
    elapsed = time.perf_counter() - start
    assert count >= 100
    print(f"\nPASS criterion 4: {count} instances recovered exactly r cells of "
          f"s orbits in {elapsed:.1f}s")


def test_criterion_5_uniqueness_invariance():
    inners = [cyclic(3), dihedral(8), alternating(4), symmetric(4)]
    rng = random.Random(2024)
    count = 0
    for inner in inners:
        for r, s in [(2, 2), (3, 2), (2, 3)]:
            for seed in range(1, 6):
                if count >= 50:
                    break
                handle, _ = random_ddp_group(RandomInstanceSpec(inner, r, s, seed))
                base_supports = decompose_handle(handle).supports()

                # relabel so that the smallest-element orbit order is the shuffled one
                structure = handle.orbit_structure
                order = list(range(1, structure.k + 1))
                rng.shuffle(order)
                tau = Permutation(orbit_order_relabelling(structure.orbits, order, handle.degree))
                reordered = decompose([g.conjugate(tau) for g in handle.generators],
                                      handle.degree)
                assert reordered.orbit_structure.orbits == tuple(
                    tuple(sorted(map(tau.image, structure.orbit(j)))) for j in order)
                tau_inv = tau.inverse()
                assert frozenset(frozenset(map(tau_inv.image, sup))
                                 for sup in reordered.supports()) == base_supports, \
                    "orbit reordering changed supports"

                images = list(range(1, handle.degree + 1))
                rng.shuffle(images)
                sigma = Permutation(images)
                conj = decompose([g.conjugate(sigma) for g in handle.generators],
                                 handle.degree)
                mapped = frozenset(frozenset(sigma.image(p) for p in sup)
                                   for sup in base_supports)
                assert conj.supports() == mapped, "conjugation did not map supports"
                count += 1
    assert count >= 50
    print(f"\nPASS criterion 5: supports invariant under reordering and conjugation "
          f"on {count} instances")


def test_criterion_6_structural_laws_running_example():
    # the laws run on every instance inside criteria 3 and 4; this exercises
    # them once on the worked example for the record
    gens = running_gens()
    handle = GroupHandle.from_generators(gens, 12)
    result = decompose_handle(handle)
    check_structural_laws(handle, result, oracle_scale=True)
    print("\nPASS criterion 6: product law, support partition and refinement "
          "rejection hold (also enforced per-instance in criteria 3-4)")


def test_criterion_7_scaling(monkeypatch):
    d8 = dihedral(8)
    fast_times = {}
    for r in (4, 6, 8, 10):
        handle, expected = random_ddp_group(RandomInstanceSpec(d8, r, 4, seed=7))
        start = time.perf_counter()
        result = decompose_handle(handle)
        elapsed = time.perf_counter() - start
        assert result.partition == expected
        assert elapsed < 1.0, f"decomposition at r={r} took {elapsed:.2f}s"
        fast_times[r] = elapsed

    # the oracle's growth is counted in split tests, one per candidate
    # bipartition, so the ratio does not depend on the host's load
    tests = 0
    splits = oracle_module._splits

    def counting(*args):
        nonlocal tests
        tests += 1
        return splits(*args)

    monkeypatch.setattr(oracle_module, "_splits", counting)
    a4 = alternating(4)
    oracle_tests = {}
    for r in (4, 8):
        per_seed = []
        for seed in (1, 2, 3):
            handle, expected = random_ddp_group(RandomInstanceSpec(a4, r, 4, seed))
            tests = 0
            assert brute_force_decompose(handle, cap=40) == expected
            per_seed.append(tests)
        oracle_tests[r] = statistics.median(per_seed)
    ratio = oracle_tests[8] / oracle_tests[4]
    assert ratio > 10, f"oracle split-test ratio {ratio:.1f}"
    fast_line = ", ".join(f"r={r}: {t * 1000:.0f}ms" for r, t in fast_times.items())
    print(f"\nPASS criterion 7: fast decompositions [{fast_line}] all < 1s; "
          f"oracle median r=8/r=4 split-test ratio {ratio:.1f}x > 10")


def test_criterion_8_applications_consistency():
    derived_count = 0
    for inner in (cyclic(3), dihedral(8), alternating(4)):
        for r, s in [(2, 2), (3, 2)]:
            for seed in range(1, 10):
                handle, _ = random_ddp_group(RandomInstanceSpec(inner, r, s, seed))
                whole = derived_subgroup(handle)
                split = derived_subgroup_via_ddpd(handle)
                assert whole.order == split.order, \
                    f"derived orders differ: {whole.order} vs {split.order}"
                derived_count += 1
    assert derived_count >= 50

    class_count = 0
    for inner in (cyclic(3), dihedral(8)):
        for r, s in [(2, 2), (2, 3), (3, 2)]:
            for seed in range(1, 6):
                if class_count >= 25:
                    break
                handle, _ = random_ddp_group(RandomInstanceSpec(inner, r, s, seed))
                if handle.order > 10_000:
                    continue
                whole = count_conjugacy_classes(handle)
                split = count_conjugacy_classes_via_ddpd(handle)
                assert whole.count == split.count
                class_count += 1
    assert class_count >= 25

    # the infeasible-to-feasible configuration: the whole group exceeds the
    # enumeration cap, the decomposed path finishes in seconds
    handle, _ = random_ddp_group(RandomInstanceSpec(dihedral(8), 6, 4, seed=11))
    hit_cap = False
    try:
        count_conjugacy_classes(handle)
    except OrderCapExceeded:
        hit_cap = True
    assert hit_cap, "whole-group path unexpectedly fit under the cap"
    start = time.perf_counter()
    report = count_conjugacy_classes_via_ddpd(handle)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0 and report.count > 1
    print(f"\nPASS criterion 8: {derived_count} derived-subgroup agreements, "
          f"{class_count} class-count agreements; capped whole-group instance "
          f"solved via factors in {elapsed:.2f}s")
