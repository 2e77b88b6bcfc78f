"""Walk through the decomposition of a 12-point group, step by step.

The group is generated by four permutations acting on four orbits of size
three.  Its finest disjoint direct product decomposition has two factors:
a C3 on {1,2,3} and an order-18 group on {4..12} that does not split any
further, because the action on orbit 2 is tied to orbits 3 and 4 through a
shared quotient.
"""

from permdecomp import (
    GroupHandle,
    OrbitPartition,
    build_chain,
    compute_N_generators,
    ddpd_step,
    decompose_handle,
    parse_cycles,
)

gens = [parse_cycles(s, 12) for s in [
    "(1,2,3)(7,9,8)(10,12,11)",
    "(4,5,6)(7,8,9)(10,11,12)",
    "(5,6)(8,9)(11,12)",
    "(7,8,9)(10,11,12)",
]]

print("generators:")
for g in gens:
    print("   ", g)

handle = GroupHandle.from_generators(gens, 12)
print("\norbits:", [list(o) for o in handle.orbit_structure.orbits])
print("orbit-ordered base:", list(handle.chain.base))
print("group order:", handle.order)
print("base prefix sizes fixing each orbit prefix:", handle.orbit_base_boundaries)

# the projection of the orbit-prefix stabilizer onto the next orbit tells
# whether that orbit is independent of everything before it
n3 = compute_N_generators(handle, 2)
print("\nstabilizer of orbits 1-2, projected onto orbit 3:",
      [str(g) for g in n3], "-> order", build_chain(n3, 12).order)
print("stabilizer of orbits 1-3, projected onto orbit 4:",
      compute_N_generators(handle, 3), "(trivial)")

print("\niterating the refinement step:")
# the walk starts from the chain's strong generators and the one-cell
# partition of orbit 1; each step returns a tuple lined up with its input,
# where an element moving orbits 1..i was sifted and the rest pass unchanged
structure = handle.orbit_structure
elements = handle.chain.strong_generators
partition = OrbitPartition([[1]])
for i in range(1, structure.k):
    prefix = [p for j in range(1, i + 1) for p in structure.orbit(j)]
    out, partition = ddpd_step(handle, i, elements, partition)
    for x, siftee in zip(elements, out):
        if x.moves_any(prefix):
            moved = siftee.moves_any(structure.orbit(i + 1))
            mark = "moves orbit %d -> merge its cell" % (i + 1) if moved else "clean"
            print(f"   step {i}: {x} sifts to {siftee} [{mark}]")
    print(f"   partition of orbits 1..{i + 1}: {partition}")
    elements = out

result = decompose_handle(handle)
print("\nfinal decomposition:")
for f in result.factors:
    print(f"   orbits {list(f.orbit_indices)}, support {list(f.support)}, "
          f"order {f.order}, generated by {[str(g) for g in f.generators]}")
print("order check:", " * ".join(str(f.order) for f in result.factors),
      "=", result.whole_order)
