"""Applications that exploit a disjoint direct product decomposition.

Two computations are provided with both a whole-group path and a decomposed
path: the derived subgroup (the derived subgroup of a product is the
product of the derived subgroups) and the number of conjugacy classes (the
class count of a product is the product of the class counts).  The
decomposed paths turn computations that are infeasible on the whole group
into small per-factor ones on each :attr:`Factor.handle`, a group on its
cell's own points, and multiply the results; past the decomposition itself,
nothing runs at the whole group's degree.

Both class-count paths share one kernel, :func:`count_conjugacy_classes`.
It enumerates a handle at that handle's own degree, after moving a group
that fixes some points onto its support (:meth:`GroupHandle.on_points`).
Coset representatives become right operands once per chain (the chain
keeps them) and generators once per call; elements and their conjugates
stay raw images (see :mod:`permdecomp.perm` for the storage), and no
:class:`Permutation` is built per element.  :func:`iter_elements` forms
the products of the chain levels in C, with ``itertools``, and the kernel
stops enumerating as soon as every element lies in some class it has
closed, so it often reads only part of the group.  Because of that stop,
the kernel reads its deadline by the number of elements it has placed in
classes, inside the conjugation search, not by the number it has
enumerated.

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
from itertools import combinations, product, starmap
from math import prod
from statistics import median
from typing import Sequence

from .decompose import DecompositionResult, InvariantViolation, decompose_handle
from .oracle import (
    DEFAULT_ORBIT_CAP,
    ComputationTimeout,
    OrbitCapExceeded,
    RandomInstanceSpec,
    brute_force_decompose,
    random_ddp_group,
)
from .perm import Permutation, _identity_image, _operand
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


@dataclass(frozen=True)
class DerivedSubgroupReport:
    """Derived subgroup order from the decomposed path: the product of the
    factors' derived subgroups, each a handle on its factor's own points."""

    order: int
    per_factor: tuple[GroupHandle, ...]


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
                              deadline: float | None = None) -> DerivedSubgroupReport:
    """Derived subgroup through the decomposition: the derived subgroup of a
    direct product is the product of the factors' derived subgroups, so
    its order is the product of theirs.  ``deadline`` applies to each
    factor's computation."""
    if result is None:
        result = decompose_handle(handle)
    per_factor = tuple(derived_subgroup(f.handle, deadline) for f in result.factors)
    return DerivedSubgroupReport(prod(d.order for d in per_factor), per_factor)


def iter_elements(handle: GroupHandle):
    """Yield every group element once, as a raw image at the handle's
    degree: a product of one coset representative per chain level.

    The products of the upper levels (all but the first) are built in C, by
    ``itertools.starmap`` over ``itertools.product``, one list per level;
    the first level's representatives are multiplied in lazily, so the
    largest structure held is the upper levels' products, and a caller
    that stops early builds no more of the group than it reads."""
    compose = Permutation._composer(handle.degree)
    levels = handle.chain._rep_operands()
    identity = _identity_image(handle.degree)
    if not levels:
        yield identity
        return
    acc = [identity]
    for reps in levels[:0:-1]:
        acc = list(starmap(compose, product(acc, reps)))
    yield from starmap(compose, product(acc, levels[0]))


def count_conjugacy_classes(handle: GroupHandle,
                            deadline: float | None = None) -> ClassCountReport:
    """Exact class count by enumerating all elements and partitioning them
    into conjugation orbits under the generators.

    A group that fixes some points and moves others is first moved onto its
    support (:meth:`GroupHandle.on_points`), so it is enumerated at the
    degree of the points it moves.  Everything runs on raw images: the
    elements come from :func:`iter_elements`, and a conjugate x^-1 h x is two
    raw products, so no :class:`Permutation` is built per element.
    Enumeration stops once the classes found so far hold all
    ``handle.order`` elements.  Groups larger than ``DEFAULT_ORDER_CAP``
    raise OrderCapExceeded before any enumeration; that is the signal to
    switch to the decomposed path.

    ``deadline`` is a ``time.monotonic()`` value.  The clock is read before
    the first conjugate is formed and again each time another 1,024
    elements have been placed in classes, so a deadline that has passed
    raises :class:`ComputationTimeout` however few elements the stop lets
    the enumeration read.
    """
    structure = handle.orbit_structure
    if structure.k and structure.fixed_points:
        handle = GroupHandle.on_points(handle.generators, sorted(structure.support()))
    if handle.order > DEFAULT_ORDER_CAP:
        raise OrderCapExceeded(f"order {handle.order} exceeds cap {DEFAULT_ORDER_CAP}")
    n = handle.degree
    compose = Permutation._composer(n)
    # a popped image becomes a right operand by one concatenation: the pad
    # is empty for tuples, whose image is already the operand
    pad = _operand(_identity_image(n))[n:]
    conjugators = [(x.inverse()._img, _operand(x._img)) for x in handle.generators]
    order = handle.order
    seen: set = set()
    add = seen.add
    stack: list = []
    pop, push = stack.pop, stack.append
    count = 0
    check = 0  # the size of seen at which the clock is read next
    for g in iter_elements(handle):
        if g in seen:
            continue
        count += 1
        add(g)
        push(g)
        while stack:
            if len(seen) >= check:
                if deadline is not None and time.monotonic() > deadline:
                    raise ComputationTimeout("class counting timed out")
                check += 1024
            h = pop() + pad
            for x_inv, x in conjugators:
                c = compose(compose(x_inv, h), x)
                if c not in seen:
                    add(c)
                    push(c)
        if len(seen) == order:
            break
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
    counts = tuple(count_conjugacy_classes(f.handle, deadline).count for f in result.factors)
    return ClassCountReport(prod(counts), counts)


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
    A decomposition that differs from an instance's ground truth raises
    :class:`InvariantViolation`: a wrong answer gets no timing row.
    """
    if task not in ("derived", "classes", "decompose"):
        raise ValueError(f"unknown task {task!r}")
    whole, decomposition, per_factor = [], [], []
    for rep in range(repetitions):
        inst_spec = RandomInstanceSpec(spec.inner_group, spec.r, spec.s,
                                       seed=spec.seed * 100_003 + rep)
        handle, expected = random_ddp_group(inst_spec)

        start = time.perf_counter()
        result = decompose_handle(handle)
        decomposition.append((time.perf_counter() - start, True))
        if result.partition != expected:
            raise InvariantViolation(f"decomposition {result.partition} of seed "
                                     f"{inst_spec.seed} is not the ground truth {expected}")

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
