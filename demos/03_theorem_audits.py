#!/usr/bin/env python3
"""Predict-then-verify: machine-checking the LCD and hull theorems.

For each family the predictor evaluates the exact hypotheses (tail
width against k/2, the corner element, divisibility and 2-adic
valuation conditions, the vanishing-position sets) and emits a claim;
the audit then builds the code and compares the computed hull rank.
"""

import random

from grlcodes.families import (CellPoints, FamilyParams, audit, diag_powers,
                               family_ctx, predict, sample_first_row_sum,
                               sample_invertible, sweep)

# 1. A single-block Euclidean cell: narrow tail means LCD.  A cell's
#    CellPoints holds its A-free work; predict and audit take it and A.
ctx = family_ctx("E1", 81)
points = CellPoints(FamilyParams(family="E1", q=81, k=5, l=2, delta=2))
a = sample_invertible(ctx, 2, random.Random(0))
pred = predict(points, a)
print("E1 (q=81, k=5, l=2, delta=2):", pred.claim, pred.witnesses)
print("  audit:", audit(points, a).to_json_dict()["computed_hull"], "== 0")

# 2. Force the corner to cancel: the hull jumps to exactly 1.
ctx = family_ctx("E1", 25)
k, l, delta = 8, 4, 1
target = ctx.neg(ctx.mul(ctx.from_int(k), ctx.element(delta * k)))
a = sample_first_row_sum(ctx, l, target, random.Random(1), hermitian=False)
rec = audit(CellPoints(FamilyParams(family="E1", q=25, k=k, l=l,
                                    delta=delta)), a)
print(f"\nE1 corner forced to zero: claim {rec.prediction['claim']}"
      f"={rec.prediction['value']}, computed {rec.computed_hull}")

# 3. A Hermitian diagonal-regime family: the hull is bounded by the
#    tail width, and a diagonal tail can attain the bound.
ctx = family_ctx("H1", 9)
rec = audit(CellPoints(FamilyParams(family="H1", q=9, k=5, l=3, delta=1)),
            diag_powers(ctx, (2, 3, 4)))
print(f"\nH1 (q=9, k=5 | q+1, l=3): claim hull <= {rec.prediction['value']}, "
      f"computed {rec.computed_hull} (bound attained)")

# 4. A seeded sweep over a whole family.
records, _ = sweep("E3", qs=(25,), samples=2, seed=7)
print(f"\nE3 sweep over q=25: {len(records)} audits, "
      f"all passed: {all(r.passed for r in records)}")
for r in records[:4]:
    pr = r.params
    print(f"  k={pr['k']:2d} l={pr['l']} s={pr['s']:2d} t={pr['t']:2d} "
          f"claim={r.prediction['claim']:7s} hull={r.computed_hull}")
