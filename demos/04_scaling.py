"""Polynomial vs exponential: time the fast algorithm against the
brute-force baseline over a sweep of instance sizes.

The fast algorithm grows gently with the number of factors r (the work is
one stabilizer chain construction and one walk over its strong
generators), while the baseline's
bipartition search over r*s orbits blows up combinatorially.  The baseline
sifts each restriction of a generator at most once per component and reads
the stored answer after that, so each split test is cheap, but the number
of split tests still grows combinatorially with the number of orbits.
"""

import time

from permdecomp import (
    RandomInstanceSpec,
    alternating,
    brute_force_decompose,
    cyclic,
    decompose_handle,
    dihedral,
    random_ddp_group,
)


def row(inner, name, r, s, seed=7, oracle=True):
    handle, expected = random_ddp_group(RandomInstanceSpec(inner, r, s, seed))
    t0 = time.perf_counter()
    result = decompose_handle(handle)
    fast = time.perf_counter() - t0
    assert result.partition == expected
    if oracle:
        t0 = time.perf_counter()
        assert brute_force_decompose(handle, cap=r * s) == expected
        slow = f"{time.perf_counter() - t0:8.3f}s"
    else:
        slow = " (skipped)"
    print(f"   {name:>3} r={r:>3} s={s}  degree {handle.degree:>4}   "
          f"fast {fast:7.3f}s   baseline {slow}")


print("decomposition time, fast algorithm vs brute-force baseline\n")
print("   inner r     s    degree      fast        baseline")
for r in (4, 6, 8, 10):
    row(dihedral(8), "D8", r, 4)
print()
for r in (4, 6, 8):
    row(alternating(4), "A4", r, 4)
print()
# the fast algorithm keeps scaling where the baseline is hopeless, past
# 256 candidates too: the chain builder sweeps each generator-support
# component (here one subdirect factor, 16 points) on its own points, so
# these chains compose bytes even at degree 1024, where the walk still takes
# most of the time (about 0.18 s against 0.06 s for the chain on a 2-core
# Xeon)
row(alternating(4), "A4", 16, 4, oracle=False)
row(dihedral(8), "D8", 20, 4, oracle=False)
row(dihedral(8), "D8", 32, 4, oracle=False)
row(dihedral(8), "D8", 64, 4, oracle=False)
# k = 1,000 orbits: the walk makes k - 1 steps, and each step sifts only
# the positions whose last sift stopped before the step's start level
row(cyclic(2), "C2", 500, 2, oracle=False)
