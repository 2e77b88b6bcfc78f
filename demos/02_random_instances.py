"""Generate random decomposable groups and recover their hidden structure.

The generator builds r indecomposable subdirect products of s copies of a
transitive inner group, places them on disjoint point ranges, and scrambles
everything by a random relabeling of the points.  The decomposition must
then recover exactly r factors of s orbits each, and it must agree with the
exponential brute-force baseline wherever that is feasible.
"""

import random

from permdecomp import (
    Permutation,
    RandomInstanceSpec,
    alternating,
    brute_force_decompose,
    decompose,
    decompose_handle,
    dihedral,
    random_ddp_group,
)

spec = RandomInstanceSpec(inner_group=dihedral(8), r=3, s=3, seed=2)
handle, expected = random_ddp_group(spec)

print(f"instance: {spec.r} factors x {spec.s} copies of D8 "
      f"-> degree {handle.degree}, order {handle.order}")
print("scrambled generators (first three):")
for g in handle.generators[:3]:
    print("   ", g)

result = decompose_handle(handle)
print("\nrecovered cells:   ", result.partition)
print("construction truth:", expected)
print("match:", result.partition == expected)

oracle_cells = brute_force_decompose(handle)
print("brute-force agrees:", oracle_cells == result.partition)

print("\nfactor supports (disjoint, covering all moved points):")
for f in result.factors:
    print(f"   order {f.order:>6} on {list(f.support)}")

# the same instance decomposed after conjugation has the mapped supports
images = list(range(1, handle.degree + 1))
random.Random(7).shuffle(images)
sigma = Permutation(images)
conjugated = decompose([g.conjugate(sigma) for g in handle.generators], handle.degree)
mapped = frozenset(frozenset(map(sigma.image, sup)) for sup in result.supports())
print("\nconjugated copy has the mapped supports:", conjugated.supports() == mapped)

big = RandomInstanceSpec(inner_group=alternating(4), r=8, s=4, seed=5)
big_handle, big_expected = random_ddp_group(big)
big_result = decompose_handle(big_handle)
print(f"\nlarger instance: A4, r=8, s=4 -> degree {big_handle.degree}, "
      f"order ~10^{len(str(big_handle.order)) - 1}")
print("recovered", len(big_result.partition.cells), "cells of sizes",
      sorted(len(c) for c in big_result.partition.cells),
      "| matches construction:", big_result.partition == big_expected)
