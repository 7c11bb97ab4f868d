#!/usr/bin/env python3
"""Build one GRL code end to end and read off everything we know.

The code: the five fifth roots of unity in GF(81), shifted by gamma^2,
with a 2x2 invertible tail -- a [7,5] code whose generator is a
Vandermonde block plus a coefficient tail.  The report computes exact
distances, hull dimensions under both inner products, the Singleton
labels, EAQECC parameters and the GRS decision.  With n = k this code is
GRS: its [7, 2] dual is MDS of length at most q.
"""

import json

from grlcodes.classify import classify
from grlcodes.gf import field_new
from grlcodes.grl import GrlSpec, build_generator
from grlcodes.linalg import Matrix

ctx = field_new(3, 4)
spec = GrlSpec(
    ctx=ctx,
    alpha=[ctx.element(16 * i + 2) for i in range(1, 6)],
    v=[ctx.one()] * 5,
    a=Matrix.from_strs(ctx, [["g^1", "g^2"], ["g^3", "g^5"]]),
    k=5,
)

g = build_generator(spec)
print("generator matrix rows (powers of gamma, '0' = zero):")
for row in g.to_strs():
    print("  ", " ".join(f"{s:>5s}" for s in row))

rep = classify(spec, with_nongrs=True)
print(f"\nparameters [{rep.n},{rep.k},{rep.d}], dual distance {rep.d_dual}")
print(f"Singleton defects: {rep.defect} / {rep.defect_dual} -> {rep.label}")
print(f"Euclidean hull dim {rep.hull_e.hull_dim} (LCD: {rep.hull_e.is_lcd})")
print(f"Hermitian hull dim {rep.hull_h.hull_dim} (GF(81) is a square field)")
print(f"GRS decision: {rep.nongrs.method} -> {rep.nongrs.verdict}")
print("\nEAQECC parameter pairs:")
for inner, pair in rep.eaqecc.items():
    for t in pair:
        print(f"  [[{t.n},{t.k_q},{t.d},{t.c}]] from {t.source}"
              f"{' (MDS)' if t.mds else ''}")

print("\nfull JSON report:")
print(json.dumps(rep.to_json_dict(), sort_keys=True, indent=1)[:800], "...")
