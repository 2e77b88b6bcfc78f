"""Applications that exploit a disjoint direct product decomposition.

Two computations are provided with both a whole-group path and a decomposed
path: the derived subgroup (the derived subgroup of a product is the
product of the derived subgroups) and the number of conjugacy classes (the
class count of a product is the product of the class counts).  The
decomposed paths turn computations that are infeasible on the whole group
into small per-factor ones.

Both class-count paths share one kernel, :func:`count_conjugacy_classes`.
It works in the group's own points: the sorted support relabelled to
0..m-1, so a factor of a large-degree group computes at the degree of its
cell.  Coset representatives and generators become raw images of degree m
once per call, and elements and their conjugates stay raw images (see
:mod:`permdecomp.perm` for the storage); no :class:`Permutation` is built
per element.

A small benchmark harness times the three phases (whole group,
decomposition, per-factor) over random instances.  Limits are cooperative:
no group above ``DEFAULT_ORDER_CAP`` elements is enumerated and long loops
check a deadline, and whatever does not finish is recorded as incomplete
rather than raising.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations
from statistics import median
from typing import Sequence

from .decompose import DecompositionResult, decompose_handle
from .oracle import (
    DEFAULT_ORBIT_CAP,
    ComputationTimeout,
    OrbitCapExceeded,
    RandomInstanceSpec,
    brute_force_decompose,
    random_ddp_group,
)
from .perm import Permutation, _identity_image, _operand, _relabel
from .stabchain import GroupHandle, is_member

DEFAULT_ORDER_CAP = 100_000


class OrderCapExceeded(RuntimeError):
    """The group is too large for exhaustive element enumeration; use the
    decomposed path instead."""


@dataclass(frozen=True)
class ClassCountReport:
    """Conjugacy class count, with per-factor counts when the decomposed
    path produced it."""

    count: int
    per_factor_counts: tuple[int, ...] | None = None


def _commutator(a: Permutation, b: Permutation) -> Permutation:
    return a.inverse() * b.inverse() * a * b


def derived_subgroup(handle: GroupHandle, deadline: float | None = None) -> GroupHandle:
    """The derived subgroup, as the normal closure of the commutators of
    all generator pairs ([b,a] is [a,b]^-1, so one per pair).

    Deterministic closure: conjugate the generators added last round by the
    group's generators and add every non-member, rebuilding the chain until
    stable.  Older generators were tested against a subgroup of the current
    one.  Terminates because the subgroup order strictly increases.
    """
    gens: list[Permutation] = []
    seen: set[Permutation] = set()
    for a, b in combinations(handle.generators, 2):
        c = _commutator(a, b)
        if not c.is_identity() and c not in seen:
            seen.add(c)
            gens.append(c)
    derived = GroupHandle.from_generators(gens, handle.degree)
    added = gens
    while True:
        if deadline is not None and time.monotonic() > deadline:
            raise ComputationTimeout("derived subgroup computation timed out")
        new = []
        for d in added:
            for g in handle.generators:
                c = d.conjugate(g)
                if c not in seen and not is_member(derived.chain, c):
                    seen.add(c)
                    new.append(c)
        if not new:
            return derived
        gens.extend(new)
        added = new
        derived = GroupHandle.from_generators(gens, handle.degree)


def derived_subgroup_via_ddpd(handle: GroupHandle,
                              result: DecompositionResult | None = None,
                              deadline: float | None = None) -> GroupHandle:
    """Derived subgroup through the decomposition: the group generated by
    the union of the factors' derived generators.  ``deadline`` applies to
    each factor's computation."""
    if result is None:
        result = decompose_handle(handle)
    gens: list[Permutation] = []
    expected_order = 1
    for factor in result.factors:
        part = derived_subgroup(factor.handle, deadline)
        gens.extend(part.generators)
        expected_order *= part.order
    out = GroupHandle.from_generators(gens, handle.degree)
    if out.order != expected_order:
        raise RuntimeError("derived factor orders do not multiply to the closure order")
    return out


def _local_points(handle: GroupHandle) -> list[int]:
    """The group's own points: its sorted support, which local coordinates
    relabel to 0..m-1."""
    return sorted(handle.orbit_structure.support())


def iter_elements(handle: GroupHandle):
    """Yield every group element once, as a raw image in local coordinates:
    a product of one coset representative per chain level."""
    points = _local_points(handle)
    compose = Permutation._composer(len(points))
    levels = [[_operand(r) for r in _relabel(level.coset_reps.values(), points)]
              for level in handle.chain.levels]
    identity = _identity_image(len(points))
    if not levels:
        yield identity
        return
    # depth first over the upper levels; the innermost one yields directly
    stack = [(len(levels) - 1, identity)]
    while stack:
        t, acc = stack.pop()
        if t == 0:
            for rep in levels[0]:
                yield compose(acc, rep)
        else:
            stack.extend((t - 1, compose(acc, rep)) for rep in levels[t])


def count_conjugacy_classes(handle: GroupHandle,
                            deadline: float | None = None) -> ClassCountReport:
    """Exact class count by enumerating all elements and partitioning them
    into conjugation orbits under the generators.

    Everything runs on raw images in local coordinates (the group's sorted
    support relabelled to 0..m-1): the elements come from
    :func:`iter_elements`, and a conjugate x^-1 h x is two raw products, so no
    :class:`Permutation` is built per element.  Groups larger than
    ``DEFAULT_ORDER_CAP`` raise OrderCapExceeded before any enumeration;
    that is the signal to switch to the decomposed path.
    """
    if handle.order > DEFAULT_ORDER_CAP:
        raise OrderCapExceeded(f"order {handle.order} exceeds cap {DEFAULT_ORDER_CAP}")
    points = _local_points(handle)
    compose = Permutation._composer(len(points))
    gens = handle.generators
    conjugators = list(zip(_relabel([x.inverse() for x in gens], points),
                           map(_operand, _relabel(gens, points))))
    seen: set = set()
    count = 0
    processed = 0
    for g in iter_elements(handle):
        processed += 1
        if deadline is not None and processed % 1024 == 0 and time.monotonic() > deadline:
            raise ComputationTimeout("class counting timed out")
        if g in seen:
            continue
        count += 1
        stack = [g]
        seen.add(g)
        while stack:
            h = _operand(stack.pop())
            for x_inv, x in conjugators:
                c = compose(compose(x_inv, h), x)
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
    return ClassCountReport(count)


def count_conjugacy_classes_via_ddpd(handle: GroupHandle,
                                     result: DecompositionResult | None = None,
                                     deadline: float | None = None) -> ClassCountReport:
    """Class count as the product of the per-factor counts.

    Only the factor orders need to stay within ``DEFAULT_ORDER_CAP``; the
    whole group may be far too large to enumerate.  ``deadline`` applies to
    each factor's count.
    """
    if result is None:
        result = decompose_handle(handle)
    counts = []
    for factor in result.factors:
        counts.append(count_conjugacy_classes(factor.handle, deadline).count)
    total = 1
    for c in counts:
        total *= c
    return ClassCountReport(total, tuple(counts))


def _timed(fn, deadline_seconds: float | None):
    """Run fn under a cooperative deadline; returns (seconds, completed)."""
    deadline = None if deadline_seconds is None else time.monotonic() + deadline_seconds
    start = time.perf_counter()
    try:
        fn(deadline)
    except (ComputationTimeout, OrderCapExceeded, OrbitCapExceeded):
        return time.perf_counter() - start, False
    return time.perf_counter() - start, True


def _column(runs: Sequence[tuple[float, bool]]) -> dict:
    """Median seconds over the completed runs, and how many completed."""
    done = [t for t, ok in runs if ok]
    return {"median": round(median(done), 4) if done else None,
            "completed": sum(ok for _, ok in runs)}


def run_benchmark(spec: RandomInstanceSpec, task: str, repetitions: int,
                  time_limit: float | None = None) -> dict:
    """Time one (inner, r, s) configuration over several fresh instances,
    and return its summary row: per column, the median over the completed
    repetitions and how many completed.

    Tasks: ``derived`` and ``classes`` compare the whole-group computation
    (column ``whole``) against decomposition plus per-factor computation
    (``decomposition`` and ``per_factor``); ``decompose`` compares the
    brute-force baseline (as ``whole``) against the fast decomposition and
    has no ``per_factor`` column.  Instances are derived deterministically
    from ``spec.seed``; timeouts and cap hits are counted as incomplete.
    """
    if task not in ("derived", "classes", "decompose"):
        raise ValueError(f"unknown task {task!r}")
    whole, decomposition, per_factor = [], [], []
    for rep in range(repetitions):
        inst_spec = RandomInstanceSpec(spec.inner_group, spec.r, spec.s,
                                       seed=spec.seed * 100_003 + rep)
        handle, _expected = random_ddp_group(inst_spec)

        start = time.perf_counter()
        result = decompose_handle(handle)
        decomposition.append((time.perf_counter() - start, True))

        if task == "decompose":
            whole.append(_timed(
                lambda dl: brute_force_decompose(
                    handle, cap=max(DEFAULT_ORBIT_CAP, spec.r * spec.s), deadline=dl),
                time_limit))
        elif task == "derived":
            whole.append(_timed(lambda dl: derived_subgroup(handle, deadline=dl), time_limit))
            per_factor.append(_timed(
                lambda dl: derived_subgroup_via_ddpd(handle, result=result, deadline=dl),
                time_limit))
        else:
            whole.append(_timed(lambda dl: count_conjugacy_classes(handle, deadline=dl),
                                time_limit))
            per_factor.append(_timed(
                lambda dl: count_conjugacy_classes_via_ddpd(handle, result=result, deadline=dl),
                time_limit))

    row = {"task": task, "reps": repetitions, "whole": _column(whole),
           "decomposition": _column(decomposition)}
    if task != "decompose":
        row["per_factor"] = _column(per_factor)
    return row
