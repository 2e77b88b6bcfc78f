"""Speed up downstream computations with the decomposition.

Two demonstrations:

* derived subgroup: the derived subgroup of a product is the product of
  the factors' derived subgroups, so computing it factor by factor gives
  the order of the whole-group normal closure in a fraction of the work;
* conjugacy class counting: the class count of a product is the product of
  the class counts, so groups far too large to enumerate become a handful
  of small enumerations.
"""

import time

from permdecomp import (
    OrderCapExceeded,
    RandomInstanceSpec,
    alternating,
    count_conjugacy_classes,
    count_conjugacy_classes_via_ddpd,
    decompose_handle,
    derived_subgroup,
    derived_subgroup_via_ddpd,
    dihedral,
    random_ddp_group,
)

print("derived subgroup, both paths (A4 inner, 12 factors, degree 192)")
handle, _ = random_ddp_group(RandomInstanceSpec(alternating(4), 12, 4, seed=1))
t0 = time.perf_counter()
whole = derived_subgroup(handle)
t_whole = time.perf_counter() - t0
t0 = time.perf_counter()
result = decompose_handle(handle)
t_dec = time.perf_counter() - t0
t0 = time.perf_counter()
split = derived_subgroup_via_ddpd(handle, result=result)
t_split = time.perf_counter() - t0
print(f"   whole-group normal closure:   order ~10^{len(str(whole.order)) - 1} "
      f"in {t_whole * 1000:.0f} ms")
print(f"   decomposition + factor-wise:  same order "
      f"in {t_dec * 1000:.0f} + {t_split * 1000:.0f} ms")
assert whole.order == split.order

print("\nconjugacy classes on a small instance, both paths")
small, _ = random_ddp_group(RandomInstanceSpec(dihedral(8), 2, 2, seed=3))
whole_report = count_conjugacy_classes(small)
split_report = count_conjugacy_classes_via_ddpd(small)
print(f"   |H| = {small.order}: whole-group count {whole_report.count}, "
      f"per-factor product {split_report.count} {split_report.per_factor_counts}")

print("\nconjugacy classes where whole-group enumeration is infeasible")
big, _ = random_ddp_group(RandomInstanceSpec(dihedral(8), 6, 4, seed=1))
print(f"   |H| = {big.order} (~10^{len(str(big.order)) - 1})")
try:
    count_conjugacy_classes(big)
except OrderCapExceeded as exc:
    print(f"   whole-group path: refused ({exc})")
t0 = time.perf_counter()
report = count_conjugacy_classes_via_ddpd(big)
print(f"   decomposed path:  {report.count} classes "
      f"(= {' * '.join(map(str, report.per_factor_counts))}) "
      f"in {time.perf_counter() - t0:.2f} s")
