#!/usr/bin/env python3
"""Telling GRL codes apart from generalized Reed-Solomon (GRS) codes.

One decision, the generalized Cauchy criterion: with the generator in
systematic form [I | B], a code of length N <= q is GRS iff B has no
zero entry and, when k and N - k are both at least 2, the entrywise
inverse 1/B has rank 2 with no two rows and no two columns of B
proportional.  Every verdict carries a witness that can be checked by
hand: points and multipliers that rebuild the code, or the entry, minor
or proportional pair that rules GRS out.
"""

from grlcodes.gf import field_new
from grlcodes.grl import GrlSpec, build_generator
from grlcodes.linalg import Matrix, rank, rref
from grlcodes.nongrs import (certify, grs_generator, nongrs_certificate,
                             standard_form)
from grlcodes.oracles import exhaustive_grs_check, schur_square_dim

# A genuinely non-GRS code: k > l and n > k.
ctx = field_new(3, 4)
spec = GrlSpec(ctx=ctx,
               alpha=[ctx.element(20 * i) for i in range(1, 5)] +
                     [ctx.element(20 * i + 32) for i in range(1, 5)],
               v=[ctx.one()] * 8,
               a=Matrix.from_strs(ctx, [["g^1", "g^2"], ["g^3", "g^5"]]),
               k=4)
g = build_generator(spec)
cert = nongrs_certificate(spec)
print("[10,4,7] code:", cert.to_json_dict())
b, info, rest, _ = standard_form(g)
ev = cert.evidence
minor = Matrix(ctx, [[ctx.inv(b.data[info.index(i)][rest.index(j)])
                      for j in ev["columns"]] for i in ev["rows"]])
print(f"  1/B on rows {ev['rows']}, columns {ev['columns']}: rank "
      f"{rank(minor)} > 2, so not GRS")
print(f"  the Schur square agrees: dim(C^2) = {schur_square_dim(g)} > 7")

# A GRL code with n = k is GRS: its [7, 2] dual is MDS of length <= q.
a1 = GrlSpec(ctx=ctx, alpha=[ctx.element(16 * i + 2) for i in range(1, 6)],
             v=[ctx.one()] * 5,
             a=Matrix.from_strs(ctx, [["g^1", "g^2"], ["g^3", "g^5"]]), k=5)
cert = nongrs_certificate(a1)
print("\n[7,5,3] code (appendix row A.1):", cert.to_json_dict())
pts = [ctx.parse(s) for s in cert.evidence["points"]]
v = [ctx.parse(s) for s in cert.evidence["v"]]
same = rref(grs_generator(ctx, pts, v, 5))[0] == rref(build_generator(a1))[0]
print(f"  GRS_5(points, v) spans the same code: {same}")

# Rank 2 alone is not enough: proportional rows of B mean a zero 2x2 minor.
f5 = field_new(5)
g5 = Matrix(f5, [[f5.from_int(x) for x in row]
                 for row in ([1, 0, 0, 4, 3], [0, 1, 0, 1, 2],
                             [0, 0, 1, 1, 4])])
print("\n[I | B] over GF(5), B = [[4,3],[1,2],[1,4]]:",
      certify(g5).to_json_dict())
print("  exhaustive search over every GRS code:",
      exhaustive_grs_check(g5)[0])

# A k = l construction with a Vandermonde tail IS Reed-Solomon.
c7 = field_new(7)
pts = [c7.parse(s) for s in ("0", "1", "g^1", "g^2")]
beta = [c7.element(3), c7.element(4)]
a = Matrix(c7, [[c7.pow(x, r) for x in beta] for r in range(2)])
rs = GrlSpec(ctx=c7, alpha=pts, v=[c7.one()] * 4, a=a, k=2)
print("\nk = l Vandermonde tail over GF(7):",
      nongrs_certificate(rs).to_json_dict())
print(f"  exhaustive search: {exhaustive_grs_check(build_generator(rs))[0]}")
