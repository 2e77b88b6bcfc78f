"""Workload definitions: a fixed grid of generated base groups per workload,
a seeded relabeling of the points for every op, and the ground truth each
answer is checked against.

Base groups come from ``random_ddp_group`` with fixed grid seeds, so every
run of a workload decomposes the same groups.  Op ``j`` of a run with seed
``seed`` conjugates base group ``j mod len(shapes)`` by a random permutation
drawn from ``(workload, seed, j)``; the generator's ground-truth cells are
mapped through the same permutation.  No two ops see the same generators, and
the code under test only ever receives generators and a degree.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from permdecomp.groups import by_name
from spans import modules

# ops look functions up through these module objects at call time, so the
# tracer's wrappers are the ones that run
_mods = modules()
perm, stabchain, dec, oracle, apps = (_mods[name] for name in
                                      ("perm", "stabchain", "decompose", "oracle", "apps"))

GRID_SEED = 2004_11618


@dataclass(frozen=True)
class Shape:
    """r indecomposable subdirect factors, each over s copies of ``inner``."""

    inner: str
    s: int
    r: int


@dataclass(frozen=True)
class Base:
    """One generated base group and its ground truth."""

    degree: int
    generators: tuple
    cells: frozenset          # frozensets of points, one per true factor
    classes: int | None = None
    derived_order: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple[Shape, ...]
    op: Callable              # (generators, degree) -> answer
    with_app_truth: bool = False


def _supports(partition, structure) -> frozenset:
    return frozenset(frozenset(p for j in cell for p in structure.orbit(j))
                     for cell in partition.cells)


def decompose_op(gens, degree):
    return dec.decompose(gens, degree).supports()


def oracle_op(gens, degree):
    handle = stabchain.GroupHandle.from_generators(gens, degree)
    k = handle.orbit_structure.k
    partition = oracle.brute_force_decompose(handle, cap=k, pairs_first=True)
    return _supports(partition, handle.orbit_structure)


def apps_op(gens, degree):
    handle = stabchain.GroupHandle.from_generators(gens, degree)
    result = dec.decompose_handle(handle)
    classes = apps.count_conjugacy_classes_via_ddpd(handle, result=result).count
    derived = apps.derived_subgroup_via_ddpd(handle, result=result).order
    return result.supports(), classes, derived


WORKLOADS = {w.name: w for w in (
    Workload("many-orbits", (Shape("C2", 2, 50), Shape("C3", 2, 42),
                             Shape("S3", 2, 36), Shape("D8", 2, 26)), decompose_op),
    Workload("wide", (Shape("D8", 4, 16), Shape("A4", 4, 16), Shape("D8", 4, 18)),
             decompose_op),
    Workload("apps", (Shape("S4", 3, 3), Shape("A4", 4, 4), Shape("D8", 4, 8)),
             apps_op, with_app_truth=True),
    Workload("oracle", (Shape("A4", 4, 4), Shape("D8", 4, 6), Shape("D8", 4, 8)),
             oracle_op),
)}

# shapes random_ddp_group cannot build: make_subdirect keeps drawing groups it
# must reject until RetryBudgetExhausted; they are left out of every workload
OMITTED_SHAPES = (
    {"inner": "any non-cyclic", "s": 1,
     "reason": "make_subdirect draws exactly one generator when s=1, which never "
               "generates a non-cyclic inner group (seen with D8, r=60)"},
    {"inner": "W2222", "s": 2,
     "reason": "no accepted subdirect product of two W2222 copies within the retry budget"},
)


def setup(workload: Workload) -> list[Base]:
    """Generate the workload's base groups and their expected answers."""
    bases = []
    for idx, shape in enumerate(workload.shapes):
        spec = oracle.RandomInstanceSpec(by_name(shape.inner), shape.r, shape.s,
                                         seed=GRID_SEED + idx)
        handle, partition = oracle.random_ddp_group(spec)
        base = Base(handle.degree, handle.generators,
                    _supports(partition, handle.orbit_structure))
        if workload.with_app_truth:
            base = _with_app_truth(base)
        bases.append(base)
    return bases


def _with_app_truth(base: Base) -> Base:
    # per true cell, the whole-group routines on the restriction
    classes = derived = 1
    for cell in base.cells:
        gens = [r for r in (g.restrict(cell) for g in base.generators) if not r.is_identity()]
        handle = stabchain.GroupHandle.from_generators(gens, base.degree)
        classes *= apps.count_conjugacy_classes(handle).count
        derived *= apps.derived_subgroup(handle).order
    return Base(base.degree, base.generators, base.cells, classes, derived)


def make_input(workload: Workload, bases: list[Base], seed: int, j: int):
    """Generators, degree and expected answer of op j."""
    base = bases[j % len(bases)]
    rng = random.Random(f"{workload.name}/{seed}/{j}")
    points = list(range(1, base.degree + 1))
    rng.shuffle(points)
    sigma = perm.Permutation(points)
    sigma_inv = sigma.inverse()
    gens = [sigma_inv * g * sigma for g in base.generators]
    cells = frozenset(frozenset(sigma.image(p) for p in cell) for cell in base.cells)
    expected = (cells, base.classes, base.derived_order) if workload.with_app_truth else cells
    return gens, base.degree, expected


HASHED_OPS = 8


def input_hash(workload: Workload, bases: list[Base], seed: int) -> str:
    """SHA-256 over the base groups and the inputs of the first HASHED_OPS
    ops, generators in cycle notation.  Every op input is a function of the
    base groups and (workload, seed, op index), so equal hashes mean the
    runs measured the same inputs."""
    h = hashlib.sha256()
    for base in bases:
        h.update(f"degree {base.degree}\n".encode())
        for g in base.generators:
            h.update(f"{perm.format_cycles(g)}\n".encode())
    for j in range(HASHED_OPS):
        gens, degree, _ = make_input(workload, bases, seed, j)
        h.update(f"op {j} degree {degree}\n".encode())
        for g in gens:
            h.update(f"{perm.format_cycles(g)}\n".encode())
    return h.hexdigest()
