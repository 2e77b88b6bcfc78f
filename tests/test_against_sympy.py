"""Chains, class counts and derived subgroups checked against sympy's
independent implementations.

sympy is a test-only dependency: without it this module is skipped.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from permdecomp import (
    GroupHandle,
    Permutation,
    build_chain,
    count_conjugacy_classes,
    derived_subgroup,
    is_member,
)

from oracles import on_points

combinatorics = pytest.importorskip("sympy.combinatorics")


def to_sympy(g):
    return combinatorics.Permutation([g.image(p) - 1 for p in range(1, g.degree + 1)])


@st.composite
def groups(draw):
    """A small nontrivial group relabelled onto random points of a degree on
    either side of the bytes/tuple boundary, a candidate sequence that covers
    its support in shuffled order with some fixed points mixed in, and
    elements to test: words in the generators and permutations of the
    support."""
    degree = draw(st.sampled_from([255, 256, 257]) | st.integers(3, 300))
    k = draw(st.integers(2, min(degree - 1, 7)))
    points = draw(st.permutations(range(1, degree + 1)))[:k + 3]
    support, spare = points[:k], points[k:]
    local = st.permutations(range(k))
    # the identity is hypothesis's simplest permutation; as a generator it
    # would make a fifth or more of the groups trivial
    moving = local.filter(lambda images: images != list(range(k)))
    gens = [Permutation(on_points(support, images, degree))
            for images in draw(st.lists(moving, min_size=1, max_size=3))]
    candidates = draw(st.permutations(support + spare[:draw(st.integers(1, len(spare)))]))
    words = draw(st.lists(st.lists(st.integers(0, len(gens) - 1), min_size=1, max_size=6),
                          min_size=1, max_size=4))
    others = [Permutation(on_points(support, images, degree))
              for images in draw(st.lists(local, min_size=1, max_size=4))]
    return degree, gens, candidates, words, others


@settings(max_examples=40, deadline=None)
@given(groups())
def test_chain_agrees_with_sympy(case):
    degree, gens, candidates, words, others = case
    chain = build_chain(gens, degree, candidates)
    group = combinatorics.PermutationGroup([to_sympy(g) for g in gens])
    assert chain.order == group.order()

    members = []
    for word in words:
        x = Permutation.identity(degree)
        for i in word:
            x = x * gens[i]
        members.append(x)
    for x in members:
        assert is_member(chain, x)
    for x in members + others:
        assert is_member(chain, x) == group.contains(to_sympy(x))
    if len(candidates) < degree:
        # a transposition reaching a point no generator moves is never a member
        outside = next(p for p in range(1, degree + 1) if p not in set(candidates))
        x = Permutation.from_cycles([(candidates[0], outside)], degree)
        assert not is_member(chain, x) and not group.contains(to_sympy(x))

    positions = [candidates.index(b) for b in chain.base]
    assert positions == sorted(positions)


@settings(max_examples=40, deadline=None)
@given(groups())
def test_class_count_agrees_with_sympy(case):
    degree, gens, *_ = case
    handle = GroupHandle.from_generators(gens, degree)
    assume(1 < handle.order <= 720)  # sympy lists every element of every class
    group = combinatorics.PermutationGroup([to_sympy(g) for g in gens])
    assert count_conjugacy_classes(handle).count == len(group.conjugacy_classes())


@settings(max_examples=40, deadline=None)
@given(groups())
def test_derived_subgroup_agrees_with_sympy(case):
    # the same order, and every generator inside sympy's derived subgroup
    degree, gens, *_ = case
    derived = derived_subgroup(GroupHandle.from_generators(gens, degree))
    expected = combinatorics.PermutationGroup([to_sympy(g) for g in gens]).derived_subgroup()
    assert derived.order == expected.order()
    assert all(expected.contains(to_sympy(g)) for g in derived.generators)
