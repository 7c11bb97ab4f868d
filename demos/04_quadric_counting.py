#!/usr/bin/env python3
"""Counting sum-of-squares solutions, exactly.

The closed forms use the quadratic character; the all-nonzero variants
run through exact arithmetic in Z[w] with w^2 = +-q, and the integer
only appears after the surd parts cancel.  The convolution oracle
(the square-value histogram added to itself k times) double-checks
every number printed here.
"""

from grlcodes.counting import (brute_quadric_count, count_nf, count_nf_star,
                               hull1_count_bound)
from grlcodes.gf import field_new

for q, m in ((5, 1), (3, 2), (13, 1)):
    ctx = field_new(q, m)
    print(f"\nGF({ctx.q}): solutions of x1^2 + x2^2 = c")
    print(f"  {'c':>5s} {'all':>6s} {'oracle':>6s} {'nonzero':>8s} {'oracle':>6s}")
    for c in list(ctx.elements())[:5]:
        nf = count_nf(ctx, 2, c)
        ns = count_nf_star(ctx, 2, c)
        print(f"  {ctx.fmt(c):>5s} {nf:6d} {brute_quadric_count(ctx, 2, c):6d}"
              f" {ns:8d} {brute_quadric_count(ctx, 2, c, True):6d}")

ctx = field_new(5)
print("\nHow many 4-dimensional codes with a one-dimensional hull can the")
print("k = 2l = 4 construction over GF(5) produce?  The bound multiplies")
print("the number of admissible first tail rows by the ways to complete")
print("an invertible matrix:")
for delta in (1, 2):
    b_all = hull1_count_bound(ctx, delta, 2, "all")
    b_star = hull1_count_bound(ctx, delta, 2, "nonzero")
    print(f"  delta={delta}: bound {b_all} (any first row), "
          f"{b_star} (all-nonzero first row)")
