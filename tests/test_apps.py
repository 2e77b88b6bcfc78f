import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from permdecomp import (
    ComputationTimeout,
    DerivedSubgroupReport,
    GroupHandle,
    OrderCapExceeded,
    Permutation,
    RandomInstanceSpec,
    alternating,
    count_conjugacy_classes,
    count_conjugacy_classes_via_ddpd,
    cyclic,
    decompose_handle,
    derived_subgroup,
    derived_subgroup_via_ddpd,
    dihedral,
    is_member,
    parse_cycles,
    random_ddp_group,
    run_benchmark,
    symmetric,
)
import permdecomp.apps as apps_module
import permdecomp.stabchain as stabchain_module
from permdecomp.apps import _column, iter_elements
from permdecomp.groups import by_name

from oracles import brute_class_count, brute_derived_order, closure, on_points, tab

RUNNING = ["(1,2,3)(7,9,8)(10,12,11)", "(4,5,6)(7,8,9)(10,11,12)",
           "(5,6)(8,9)(11,12)", "(7,8,9)(10,11,12)"]


def running_handle():
    return GroupHandle.from_generators([parse_cycles(s, 12) for s in RUNNING], 12)


@st.composite
def relabelled_groups(draw):
    """A nontrivial group of order at most 2000 that permutes up to three
    blocks of 2-4 points each, as generator tables on those k points, and
    the same group relabelled onto random points of a degree on either side
    of the bytes/tuple boundary."""
    degree = draw(st.sampled_from([255, 256, 257, 300]))
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    k = sum(sizes)
    rng = draw(st.randoms(use_true_random=False))
    local = [[i for a, n in zip(starts, sizes) for i in rng.sample(range(a, a + n), n)]
             for _ in range(draw(st.integers(1, 3)))]
    small = [tuple(i + 1 for i in images) for images in local]
    elements = closure(small, k, limit=2000)
    assume(elements is not None and len(elements) > 1)
    points = draw(st.permutations(range(1, degree + 1)))[:k]
    gens = [Permutation(on_points(points, images, degree)) for images in local]
    return small, k, GroupHandle.from_generators(gens, degree)


def s4_pair():
    """S4 x S4 on disjoint point ranges."""
    gens = [parse_cycles("(1,2)", 8), parse_cycles("(1,2,3,4)", 8),
            parse_cycles("(5,6)", 8), parse_cycles("(5,6,7,8)", 8)]
    return GroupHandle.from_generators(gens, 8)


class TestDerivedSubgroup:
    def test_abelian_gives_trivial(self):
        h = GroupHandle.from_generators(
            [parse_cycles("(1,2,3)", 6), parse_cycles("(4,5,6)", 6)], 6)
        assert derived_subgroup(h).order == 1

    def test_s4(self):
        h = symmetric(4)
        expected = brute_derived_order([tab(g) for g in h.generators], 4)
        assert expected == 12
        assert derived_subgroup(h).order == 12

    def test_d8(self):
        h = dihedral(8)
        expected = brute_derived_order([tab(g) for g in h.generators], 4)
        assert expected == 2
        assert derived_subgroup(h).order == 2

    def test_derived_is_normal(self):
        h = running_handle()
        derived = derived_subgroup(h)
        for d in derived.generators:
            for g in h.generators:
                assert is_member(derived.chain, d.conjugate(g))

    def test_whole_vs_decomposed_on_running_example(self):
        h = running_handle()
        assert derived_subgroup(h).order == derived_subgroup_via_ddpd(h).order

    def test_s4_times_s4_via_decomposition(self):
        assert derived_subgroup_via_ddpd(s4_pair()).order == 144

    def test_paths_agree_on_random_instances(self):
        for seed in (1, 2, 3, 4, 5):
            H, _ = random_ddp_group(RandomInstanceSpec(alternating(4), 2, 2, seed))
            assert derived_subgroup(H).order == derived_subgroup_via_ddpd(H).order

    def test_report_is_the_product_of_the_factors(self):
        H, _ = random_ddp_group(RandomInstanceSpec(alternating(4), 3, 2, seed=4))
        result = decompose_handle(H)
        report = derived_subgroup_via_ddpd(H, result=result)
        assert isinstance(report, DerivedSubgroupReport)
        assert len(report.per_factor) == len(result.factors) == 3
        product = 1
        for factor, derived in zip(result.factors, report.per_factor):
            assert derived.degree == len(factor.support)
            assert derived.order == derived_subgroup(factor.handle).order
            product *= derived.order
        assert report.order == product == derived_subgroup(H).order


class TestFactorDegrees:
    # the decomposed paths work on the factors' own points: no chain at the
    # whole group's degree, not even to check a product law that is a theorem

    @pytest.mark.parametrize("inner, r, s, seed", [("A4", 3, 2, 4), ("D8", 4, 3, 5),
                                                   ("S3", 3, 2, 6)])
    def test_via_ddpd_builds_no_chain_at_the_whole_degree(self, monkeypatch,
                                                           inner, r, s, seed):
        H, _ = random_ddp_group(RandomInstanceSpec(by_name(inner), r, s, seed=seed))
        result = decompose_handle(H)
        degrees = []
        build = stabchain_module.build_chain

        def recording_build(gens, degree, candidates=None):
            degrees.append(degree)
            return build(gens, degree, candidates)

        monkeypatch.setattr(stabchain_module, "build_chain", recording_build)
        count_conjugacy_classes_via_ddpd(H, result=result)
        derived_subgroup_via_ddpd(H, result=result)
        assert degrees and H.degree not in degrees
        assert set(degrees) <= {len(f.support) for f in result.factors}


class TestClassCounting:
    def test_c3(self):
        assert count_conjugacy_classes(cyclic(3)).count == 3

    def test_s4(self):
        h = symmetric(4)
        expected = brute_class_count([tab(g) for g in h.generators], 4)
        assert expected == 5
        report = count_conjugacy_classes(h)
        assert report.count == 5 and report.per_factor_counts is None

    def test_d8(self):
        h = dihedral(8)
        expected = brute_class_count([tab(g) for g in h.generators], 4)
        assert expected == 5
        assert count_conjugacy_classes(h).count == 5

    def test_element_enumeration_is_exact(self):
        # elements are 0-based raw images at the handle's degree
        h = running_handle()
        elems = list(iter_elements(h))
        assert len(elems) == 54 == len(set(elems))
        assert ({tuple(x + 1 for x in e) for e in elems}
                == closure([tab(g) for g in h.generators], 12))

    def test_no_permutation_per_element(self, monkeypatch):
        h = s4_pair()
        # the chain is built on first read; build it before counting
        assert h.order == 576
        made = []
        make = Permutation._make.__func__
        monkeypatch.setattr(Permutation, "_make",
                            classmethod(lambda cls, img: made.append(img) or make(cls, img)))
        assert count_conjugacy_classes(h).count == 25
        assert len(made) <= len(h.generators)

    def test_trivial_group_has_one_class(self):
        h = GroupHandle.from_generators([], 5)
        assert list(iter_elements(h)) == [Permutation.identity(5)._img]
        assert count_conjugacy_classes(h).count == 1

    @settings(max_examples=60, deadline=None)
    @given(relabelled_groups())
    def test_matches_brute_force_on_relabelled_groups(self, case):
        small, k, h = case
        assert count_conjugacy_classes(h).count == brute_class_count(small, k)

    @pytest.mark.parametrize("n", [257, 300])
    def test_cyclic_on_the_tuple_path(self, n):
        # the degree is above 256, so images are tuples
        assert count_conjugacy_classes(cyclic(n)).count == n

    @pytest.mark.parametrize("n", [257, 300])
    def test_enumeration_on_the_tuple_path(self, n):
        # S4 x C3 at a tuple degree: a chain of several levels, so the
        # upper levels' products are composed as tuples too
        h = GroupHandle.from_generators(
            [parse_cycles(c, n) for c in ("(1,2)", "(1,2,3,4)", f"({n - 2},{n - 1},{n})")], n)
        elems = list(iter_elements(h))
        assert len(h.chain.levels) > 1 and all(type(e) is tuple for e in elems)
        assert len(elems) == h.order == 72 == len(set(elems))
        assert ({tuple(x + 1 for x in e) for e in elems}
                == closure([tab(g) for g in h.generators], n))

    def test_stops_once_every_element_is_seen(self, monkeypatch):
        # counted the way the benchmark's tracer counts: items yielded
        enumerated = []
        enumerate_all = apps_module.iter_elements

        def counting(handle):
            for g in enumerate_all(handle):
                enumerated.append(g)
                yield g

        monkeypatch.setattr(apps_module, "iter_elements", counting)
        assert count_conjugacy_classes(symmetric(7)).count == 15
        assert 0 < len(enumerated) < 5040

    @pytest.mark.parametrize("group", [symmetric, alternating], ids=["S7", "A7"])
    @pytest.mark.parametrize("count", [count_conjugacy_classes,
                                       count_conjugacy_classes_via_ddpd],
                             ids=["whole", "via_ddpd"])
    def test_expired_deadline_raises(self, group, count):
        # the early stop reads few elements from the enumeration, so the
        # clock is read in the conjugation search as well
        with pytest.raises(ComputationTimeout):
            count(group(7), deadline=time.monotonic() - 1)

    @pytest.mark.parametrize("inner, r, s, seed, count, per_factor", [
        ("S4", 3, 3, 2004_11618, 262144, (64, 64, 64)),
        ("A4", 4, 4, 2004_11619, 13246464, (56, 56, 88, 48)),
        ("D8", 8, 4, 2004_11620, 155002317307904, (58, 58, 58, 44, 76, 64, 64, 58)),
    ])
    def test_golden_counts(self, inner, r, s, seed, count, per_factor):
        # counts measured with the earlier enumeration of Permutation objects
        H, _ = random_ddp_group(RandomInstanceSpec(by_name(inner), r, s, seed=seed))
        report = count_conjugacy_classes_via_ddpd(H)
        assert (report.count, report.per_factor_counts) == (count, per_factor)

    def test_c3_times_c3(self):
        h = GroupHandle.from_generators(
            [parse_cycles("(1,2,3)", 6), parse_cycles("(4,5,6)", 6)], 6)
        report = count_conjugacy_classes_via_ddpd(h)
        assert report.count == 9
        assert report.per_factor_counts == (3, 3)

    def test_s4_times_s4(self):
        assert count_conjugacy_classes_via_ddpd(s4_pair()).count == 25

    def test_paths_agree_on_small_instances(self):
        for seed in (1, 2, 3):
            H, _ = random_ddp_group(RandomInstanceSpec(cyclic(3), 2, 3, seed))
            whole = count_conjugacy_classes(H)
            split = count_conjugacy_classes_via_ddpd(H)
            assert whole.count == split.count

    def test_order_cap_enforced(self):
        H, _ = random_ddp_group(RandomInstanceSpec(dihedral(8), 6, 4, seed=1))
        with pytest.raises(OrderCapExceeded):
            count_conjugacy_classes(H)

    def test_infeasible_whole_group_solvable_in_factors(self):
        # the decomposed path finishes fast although the whole group is far
        # beyond any enumeration cap
        H, _ = random_ddp_group(RandomInstanceSpec(dihedral(8), 6, 4, seed=1))
        start = time.perf_counter()
        report = count_conjugacy_classes_via_ddpd(H)
        assert time.perf_counter() - start < 5.0
        assert report.count > 1 and len(report.per_factor_counts) == 6


class TestBenchmark:
    def test_tiny_instance_completes(self):
        spec = RandomInstanceSpec(cyclic(3), 2, 2, seed=1)
        row = run_benchmark(spec, "classes", repetitions=1, time_limit=30)
        assert row["reps"] == 1
        assert row["whole"]["completed"] == row["per_factor"]["completed"] == 1
        assert row["decomposition"]["median"] >= 0

    def test_decompose_task_columns(self):
        spec = RandomInstanceSpec(dihedral(8), 2, 2, seed=2)
        row = run_benchmark(spec, "decompose", repetitions=3, time_limit=30)
        assert list(row) == ["task", "reps", "whole", "decomposition"]
        assert row["task"] == "decompose" and row["reps"] == 3
        assert row["whole"]["completed"] == 3
        assert row["decomposition"]["median"] is not None

    def test_classes_task_records_incomplete_whole_group(self):
        spec = RandomInstanceSpec(dihedral(8), 6, 4, seed=3)
        row = run_benchmark(spec, "classes", repetitions=1, time_limit=30)
        assert row["whole"] == {"median": None, "completed": 0}
        assert row["per_factor"]["completed"] == 1

    @pytest.mark.parametrize("task", ["classes", "derived"])
    def test_time_limit_applies_to_per_factor_column(self, task):
        spec = RandomInstanceSpec(symmetric(4), 2, 3, 1)
        row = run_benchmark(spec, task, 1, time_limit=1e-6)
        assert row["per_factor"]["completed"] == 0

    def test_median_is_middle_of_odd_count(self):
        # the median is over completed runs only
        runs = [(5.0, True), (1.0, True), (100.0, False), (3.0, True)]
        assert _column(runs) == {"median": 3.0, "completed": 3}

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark(RandomInstanceSpec(cyclic(3), 1, 1, seed=1), "nope", 1)
