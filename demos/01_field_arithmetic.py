#!/usr/bin/env python3
"""Tour of the exact field layer.

Every element of GF(p^m) is stored as a discrete log of the fixed
primitive element gamma (the root of the Conway polynomial), with -1 as
the additive zero.  Multiplication is exponent addition; addition goes
through the Zech table.  Everything below is exact integer arithmetic.
"""

from grlcodes.gf import ZERO, field_new, quadratic_character

ctx = field_new(3, 4)
print(f"GF(81): modulus coefficients (ascending) = {ctx.modulus}")
print(f"gamma is the class of x; gamma as packed id = {ctx.exp[1]}")
print(f"group order = {ctx.n}, -1 = gamma^{ctx.half}")

g = ctx.gen()
print("\npowers of gamma close up:", ctx.fmt(ctx.pow(g, 80)), "= 1")
a, b = ctx.element(18), ctx.element(34)
print(f"g^18 * g^34 = {ctx.fmt(ctx.mul(a, b))}")
print(f"g^18 + g^34 = {ctx.fmt(ctx.add(a, b))}   (one Zech lookup)")
print(f"inverse of g^18 = {ctx.fmt(ctx.inv(a))}")

print("\ncoefficient view of g^18:", ctx.to_coeffs(a))
print("round trip:", ctx.fmt(ctx.from_coeffs(ctx.to_coeffs(a))))

print("\nquadratic characters in GF(5):")
c5 = field_new(5)
for c in c5.elements():
    print(f"  eta({c5.fmt(c):4s}) = {quadratic_character(c5, c):+d}"
          if c != ZERO else "  eta(0)    =  0")

ctx2 = field_new(5, 2)
x = ctx2.element(7)
print(f"\nGF(25) conjugation: (g^7)^5 = {ctx2.fmt(ctx2.frob(x))}, "
      f"twice = {ctx2.fmt(ctx2.frob(ctx2.frob(x)))}")
