"""Evaluation-point families, theorem-hypothesis checking, and audits.

Eight families over a fixed k-th root block a_i = gamma^{(Q/k) i}:

==== ======================= ========== ==============================
name points (Q = group order) length     claims
==== ======================= ========== ==============================
E1   gamma^delta * a          k          LCD / hull 1
E2   0, gamma^delta * a       k+1        LCD / hull 1 / hull 2
E3   gamma^s * a, gamma^t * a 2k         LCD / hull 1 (delta form)
E4   a, gamma*a, gamma^2*a    3k         LCD / hull 1 / hull 2
H1   gamma^delta * a          k          LCD / hull 1 / hull <= l
H2   0, gamma^delta * a       k+1        LCD / hull 1 / 2 / <= l
H3   gamma^s * a, gamma^t * a 2k         LCD / hull <= l
H4   a, gamma*a, .., g^d * a  (d+1)k     LCD / hull 1 / 2 / <= l
==== ======================= ========== ==============================

E-families live over GF(q) with k | q-1; H-families over GF(q^2) with
k | q^2-1, splitting into k | q-1 (anti-diagonal Gram) and k | q+1
(diagonal Gram) regimes.  predict() evaluates every hypothesis exactly
and returns the strongest applicable claim with the evaluated terms
attached; audit() then builds the code and compares the computed hull.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

from .gf import (FIELD_SIZE_CAP, ZERO, FieldCtx, FieldTooLarge, GrlError,
                 NotADivisor, field_new, prime_factors, quadratic_character,
                 v_p)
from .grl import (DistinctnessViolation, GrlSpec, InvariantViolation,
                  build_generator)
from .hull import EUCLIDEAN, HERMITIAN, hull_report
from .linalg import Matrix, rank

EUCLIDEAN_FAMILIES = ("E1", "E2", "E3", "E4")
HERMITIAN_FAMILIES = ("H1", "H2", "H3", "H4")
FAMILIES = EUCLIDEAN_FAMILIES + HERMITIAN_FAMILIES


class NoClaim(GrlError):
    pass


@dataclass
class FamilyParams:
    family: str
    q: int          # base q; the working field is GF(q) or GF(q^2)
    k: int
    l: int
    a: Matrix
    delta: int | None = None
    s: int | None = None
    t: int | None = None

    @property
    def ctx(self) -> FieldCtx:
        return self.a.ctx

    def shifts_desc(self):
        if self.family in ("E3", "H3"):
            return {"s": self.s, "t": self.t}
        return {"delta": self.delta}

    def describe(self):
        d = {"family": self.family, "q": self.q, "k": self.k, "l": self.l,
             "A": self.a.to_strs()}
        d.update(self.shifts_desc())
        return d


@dataclass
class Prediction:
    claim: str                  # 'lcd' | 'hull_eq' | 'hull_le' | 'none'
    value: int | None
    clause: str
    witnesses: dict = field(default_factory=dict)

    def describe(self):
        return {"claim": self.claim, "value": self.value,
                "clause": self.clause, "witnesses": self.witnesses}


@dataclass
class AuditRecord:
    params: dict
    prediction: dict
    computed_hull: int
    passed: bool

    def to_json_dict(self):
        return {"params": self.params, "prediction": self.prediction,
                "computed_hull": self.computed_hull, "passed": self.passed}


def family_ctx(family: str, q: int) -> FieldCtx:
    """GF(q) for E-families, GF(q^2) for H-families."""
    if q > FIELD_SIZE_CAP:  # before q is factored
        raise FieldTooLarge(f"q = {q} exceeds cap {FIELD_SIZE_CAP}")
    primes = prime_factors(q)
    if len(primes) != 1:
        raise GrlError(f"{q} is not a prime power")
    p = primes[0]
    m = v_p(q, p)
    return field_new(p, m if family in EUCLIDEAN_FAMILIES else 2 * m)


def group_order(params: FamilyParams) -> int:
    return params.q - 1 if params.family in EUCLIDEAN_FAMILIES \
        else params.q * params.q - 1


def _shift_list(params: FamilyParams):
    fam = params.family
    if fam in ("E1", "E2", "H1", "H2"):
        return [params.delta]
    if fam in ("E3", "H3"):
        return [params.s, params.t]
    if fam == "E4":
        return [0, 1, 2]
    if fam == "H4":
        return list(range(params.delta + 1))
    raise GrlError(f"unknown family {fam}")


def make_alpha(params: FamilyParams) -> list[int]:
    """Assembled evaluation points; raises DistinctnessViolation with the
    colliding pair and the divisibility clause that failed."""
    ctx = params.ctx
    order = group_order(params)
    k = params.k
    if order % k:
        raise NotADivisor(f"k = {k} must divide the group order {order}")
    step = order // k
    alpha = []
    for shift in _shift_list(params):
        alpha.extend(ctx.element(step * i + shift) for i in range(1, k + 1))
    if params.family in ("E2", "H2"):
        alpha.insert(0, ZERO)
    seen = {}
    for pos, x in enumerate(alpha):
        if x in seen:
            raise DistinctnessViolation(
                f"positions {seen[x]} and {pos} coincide ({ctx.fmt(x)}); "
                f"the block-shift difference is divisible by {step}")
        seen[x] = pos
    return alpha


def build_spec(params: FamilyParams) -> GrlSpec:
    alpha = make_alpha(params)
    ctx = params.ctx
    return GrlSpec(ctx=ctx, alpha=alpha, v=[ctx.one()] * len(alpha),
                   a=params.a, k=params.k)


# -- hypothesis helpers --


def _corner_sum_e(params):
    """sum of a_1i^2 over the first row of A."""
    ctx = params.ctx
    acc = ZERO
    for x in params.a.data[0]:
        acc = ctx.add(acc, ctx.mul(x, x))
    return acc


def _corner_sum_h(params):
    """sum of a_1i^{1+q} over the first row of A."""
    ctx = params.ctx
    q = ctx.base_q
    acc = ZERO
    for x in params.a.data[0]:
        acc = ctx.add(acc, ctx.mul(x, ctx.pow(x, q)))
    return acc


def delta_conditions(q: int, k: int, delta: int) -> list[int]:
    """Which of the five (q-1, k, delta) valuation conditions hold for the
    two-block family with shifts (0, delta); empty list means none."""
    out = []
    a2, b2 = v_p(q - 1, 2), v_p(k, 2)
    odd_primes = [pp for pp in prime_factors(q - 1) if pp != 2]
    diff2 = a2 - b2
    # factor delta as an odd-prime power if possible
    odd_base = None
    if delta >= 1:
        d = delta
        for pp in range(3, delta + 1, 2):
            if d % pp == 0:
                e = 0
                while d % pp == 0:
                    d //= pp
                    e += 1
                odd_base = (pp, e) if d == 1 else None
                break
    two_exp = None
    d = delta
    e = 0
    while d % 2 == 0:
        d //= 2
        e += 1
    if d == 1:
        two_exp = e
    if two_exp is not None and two_exp >= 1 and b2 == a2 >= 1:
        out.append(1)
    if two_exp is not None and b2 < a2 and 0 <= two_exp <= diff2 - 2:
        out.append(2)
    if odd_base is not None and diff2 != 1:
        pp, e = odd_base
        if v_p(q - 1, pp) == v_p(k, pp) and e >= v_p(q - 1, pp) + 1:
            out.append(3)
    if two_exp is not None and two_exp >= a2:
        if any(v_p(k, pp) < v_p(q - 1, pp) for pp in odd_primes):
            out.append(4)
    if diff2 != 1:
        for pp in odd_primes:
            ediff = v_p(q - 1, pp) - v_p(k, pp)
            if ediff < 1:
                continue
            target = v_p(delta, pp) if delta % pp == 0 else 0
            if delta == pp ** target and 0 <= target <= ediff - 1:
                out.append(5)
                break
    return out


def _none(clause, **w):
    return Prediction(claim="none", value=None, clause=clause, witnesses=w)


def predict(params: FamilyParams) -> Prediction:
    """Strongest theorem claim whose hypotheses all hold, with every
    evaluated term attached as a witness; 'none' is a valid outcome."""
    if not 2 <= params.l <= params.k:
        return _none("need 2 <= l <= k")
    if params.family in EUCLIDEAN_FAMILIES:
        return _predict_euclidean(params)
    return _predict_hermitian(params)


def _predict_euclidean(params):
    ctx, q, k, l = params.ctx, params.q, params.k, params.l
    fam = params.family
    if (q - 1) % k:
        return _none("k must divide q-1")
    narrow = 2 * l < k
    half = 2 * l == k
    w = {"narrow": narrow, "half": half}

    if fam == "E1":
        theta = ctx.element(params.delta * k)
    elif fam == "E2":
        theta = ctx.element(params.delta * k)
    elif fam == "E3":
        if (params.s - params.t) % ((q - 1) // k) == 0:
            return _none("blocks collide: (q-1)/k divides s-t", **w)
        theta = ctx.add(ctx.element(params.s * k), ctx.element(params.t * k))
    else:  # E4
        if q - 1 in (k, 2 * k, 3 * k):
            return _none("q-1 in {k, 2k, 3k}", **w)
        theta = ctx.add(ctx.add(ctx.one(), ctx.element(k)),
                        ctx.element(2 * k))
    corner = ctx.add(ctx.mul(ctx.from_int(k), theta), _corner_sum_e(params))
    w["theta"] = ctx.fmt(theta)
    w["corner"] = ctx.fmt(corner)

    if fam == "E1":
        if narrow:
            return Prediction("lcd", 0, "single-block narrow tail", w)
        if half:
            if corner != ZERO:
                return Prediction("lcd", 0, "single-block corner nonzero", w)
            return Prediction("hull_eq", 1, "single-block corner zero", w)
        return _none("tail wider than k/2", **w)

    if fam == "E2":
        p_div = (k + 1) % ctx.p == 0
        w["p_divides_k_plus_1"] = p_div
        if p_div:
            if narrow or (half and corner != ZERO):
                return Prediction("hull_eq", 1, "zero-point block, p | k+1", w)
            if half:
                return Prediction("hull_eq", 2,
                                  "zero-point block, p | k+1, corner zero", w)
            return _none("tail wider than k/2", **w)
        if narrow:
            return Prediction("lcd", 0, "zero-point block narrow tail", w)
        if half and corner != ZERO:
            return Prediction("lcd", 0, "zero-point block corner nonzero", w)
        return _none("no clause for this tail/corner", **w)

    if fam == "E3":
        diff = params.s - params.t
        v2_ok = v_p(abs(diff), 2) != v_p(q - 1, 2) - v_p(k, 2) - 1
        w["v2_condition"] = v2_ok
        conds = []
        if params.s % (q - 1) == 0 or params.t % (q - 1) == 0:
            delta = params.t if params.s % (q - 1) == 0 else params.s
            conds = delta_conditions(q, k, delta)
            w["delta_conditions"] = conds
        if v2_ok or conds:
            if narrow:
                return Prediction("lcd", 0, "two-block narrow tail", w)
            if half and corner != ZERO:
                return Prediction("lcd", 0, "two-block corner nonzero", w)
        if conds and half and corner == ZERO:
            return Prediction("hull_eq", 1, "two-block corner zero", w)
        return _none("no clause fired", **w)

    # E4
    if ctx.p == 3:
        if narrow or (half and corner != ZERO):
            return Prediction("hull_eq", 1, "three-block, p = 3", w)
        if half:
            return Prediction("hull_eq", 2, "three-block, p = 3, corner zero", w)
        return _none("tail wider than k/2", **w)
    if narrow:
        return Prediction("lcd", 0, "three-block narrow tail", w)
    if half:
        if corner != ZERO:
            return Prediction("lcd", 0, "three-block corner nonzero", w)
        return Prediction("hull_eq", 1, "three-block corner zero", w)
    return _none("tail wider than k/2", **w)


def _predict_hermitian(params):
    ctx, q, k, l = params.ctx, params.q, params.k, params.l
    fam = params.family
    order = q * q - 1
    if order % k:
        return _none("k must divide q^2-1")
    kq1 = (q - 1) % k == 0
    kq2 = (q + 1) % k == 0
    narrow = 2 * l < k
    half = 2 * l == k
    w = {"narrow": narrow, "half": half, "k_div_q_minus_1": kq1,
         "k_div_q_plus_1": kq2}
    exp_corner = (k - l) + l * q          # exponent at the Gram corner

    if fam == "H1":
        if kq1:
            gam = ctx.element(params.delta * exp_corner)
            corner = ctx.add(ctx.mul(ctx.from_int(k), gam),
                             _corner_sum_h(params))
            w["corner"] = ctx.fmt(corner)
            if narrow:
                return Prediction("lcd", 0, "single-block narrow tail", w)
            if half:
                if corner != ZERO:
                    return Prediction("lcd", 0, "single-block corner nonzero", w)
                return Prediction("hull_eq", 1, "single-block corner zero", w)
            return _none("tail wider than k/2", **w)
        if kq2:
            return Prediction("hull_le", l, "single-block diagonal regime", w)
        return _none("k divides neither q-1 nor q+1", **w)

    if fam == "H2":
        p_div = (k + 1) % ctx.p == 0
        w["p_divides_k_plus_1"] = p_div
        if kq1:
            gam = ctx.element(params.delta * exp_corner)
            corner = ctx.add(ctx.mul(ctx.from_int(k), gam),
                             _corner_sum_h(params))
            w["corner"] = ctx.fmt(corner)
            if p_div:
                if narrow or (half and corner != ZERO):
                    return Prediction("hull_eq", 1, "zero-point, p | k+1", w)
                if half:
                    return Prediction("hull_eq", 2,
                                      "zero-point, p | k+1, corner zero", w)
                return _none("tail wider than k/2", **w)
            if narrow:
                return Prediction("lcd", 0, "zero-point narrow tail", w)
            if half and corner != ZERO:
                return Prediction("lcd", 0, "zero-point corner nonzero", w)
            return _none("no clause for this tail/corner", **w)
        if kq2 and not p_div:
            return Prediction("hull_le", l, "zero-point diagonal regime", w)
        return _none("no clause fired", **w)

    if fam == "H3":
        diff = params.s - params.t
        if diff % (order // k) == 0:
            return _none("blocks collide: (q^2-1)/k divides s-t", **w)
        v2d = v_p(abs(diff), 2)
        if kq1:
            tset = {v_p(order, 2) - 1 - v_p(i + (k - i) * q, 2)
                    for i in range(1, k)}
            w["T"] = sorted(tset)
            w["v2_of_shift_difference"] = v2d
            if v2d not in tset:
                gam = ctx.add(ctx.element(params.s * exp_corner),
                              ctx.element(params.t * exp_corner))
                corner = ctx.add(ctx.mul(ctx.from_int(k), gam),
                                 _corner_sum_h(params))
                w["corner"] = ctx.fmt(corner)
                if narrow:
                    return Prediction("lcd", 0, "two-block narrow tail", w)
                if half and corner != ZERO:
                    return Prediction("lcd", 0, "two-block corner nonzero", w)
            return _none("no clause fired", **w)
        if kq2:
            nset = {v_p(q - 1, 2) - v_p(i, 2) - 1 for i in range(1, k - l)}
            w["N_l"] = sorted(nset)
            w["v2_of_shift_difference"] = v2d
            if v2d not in nset:
                return Prediction("hull_le", l, "two-block diagonal regime", w)
            return _none("shift difference valuation in N_l", **w)
        return _none("k divides neither q-1 nor q+1", **w)

    # H4
    delta = params.delta
    if not 1 <= delta <= q:
        return _none("need 1 <= delta <= q", **w)
    p_div = (delta + 1) % ctx.p == 0
    w["p_divides_delta_plus_1"] = p_div
    if kq1:
        svals = [i for i in range(1, k)
                 if (delta + 1) % (order // gcd(order, i + (k - i) * q)) == 0]
        w["S_1"] = svals
        gam = ZERO
        for j in range(delta + 1):
            gam = ctx.add(gam, ctx.element(j * (l + (k - l) * q)))
        corner = ctx.add(ctx.mul(ctx.from_int(k), gam), _corner_sum_h(params))
        w["corner"] = ctx.fmt(corner)
        if not svals:
            if p_div:
                if narrow or (half and corner != ZERO):
                    return Prediction("hull_eq", 1, "multi-block, p | delta+1", w)
                if half:
                    return Prediction("hull_eq", 2,
                                      "multi-block, p | delta+1, corner zero", w)
                return _none("tail wider than k/2", **w)
            if narrow:
                return Prediction("lcd", 0, "multi-block narrow tail", w)
            if half:
                if corner != ZERO:
                    return Prediction("lcd", 0, "multi-block corner nonzero", w)
                return Prediction("hull_eq", 1, "multi-block corner zero", w)
            return _none("tail wider than k/2", **w)
        # nonempty S_1: the exact-dimension statement fails for special A
        # (and for vanishing positions between l and k-l), so no claim.
        return _none("vanishing anti-diagonal positions present", **w)
    if kq2:
        uvals = [i for i in range(1, k - l)
                 if (delta + 1) % (order // gcd(order, i * (q + 1))) == 0]
        w["U_l"] = uvals
        if not uvals and not p_div:
            return Prediction("hull_le", l, "multi-block diagonal regime", w)
        return _none("U_l nonempty or p | delta+1", **w)
    return _none("k divides neither q-1 nor q+1", **w)


def audit(params: FamilyParams) -> AuditRecord:
    """Build the code, compute the hull, compare against the prediction."""
    pred = predict(params)
    if pred.claim == "none":
        raise NoClaim(f"no theorem claim applies: {pred.clause}")
    spec = build_spec(params)
    inner = EUCLIDEAN if params.family in EUCLIDEAN_FAMILIES else HERMITIAN
    computed = hull_report(build_generator(spec), inner).hull_dim
    if pred.claim == "lcd":
        passed = computed == 0
    elif pred.claim == "hull_eq":
        passed = computed == pred.value
    else:
        passed = computed <= pred.value
    return AuditRecord(params=params.describe(), prediction=pred.describe(),
                       computed_hull=computed, passed=passed)


# -- A-matrix samplers --


def sample_invertible(ctx: FieldCtx, l: int, rng: random.Random) -> Matrix:
    els = [ZERO] + list(ctx.nonzero_elements())
    while True:
        a = Matrix(ctx, [[rng.choice(els) for _ in range(l)]
                         for _ in range(l)])
        if rank(a) == l:
            return a


def _solve_square(ctx, c):
    """x with x^2 = c, or None if c is a non-square."""
    if c == ZERO:
        return ZERO
    if quadratic_character(ctx, c) != 1:
        return None
    return c // 2 if c % 2 == 0 else None


def _solve_norm(ctx, c):
    """x with x^{1+q} = c over GF(q^2); None only if impossible."""
    if c == ZERO:
        return ZERO
    q = ctx.base_q
    if c % (q + 1):
        return None  # c outside the base field: no norm preimage
    return c // (q + 1)


def sample_first_row_sum(ctx: FieldCtx, l: int, target: int,
                         rng: random.Random, hermitian: bool,
                         tries: int = 200) -> Matrix | None:
    """Invertible A whose first row satisfies sum a_1i^2 = target
    (Euclidean) or sum a_1i^{1+q} = target (Hermitian); None on failure."""
    els = [ZERO] + list(ctx.nonzero_elements())
    solve = _solve_norm if hermitian else _solve_square
    q = ctx.base_q if hermitian else None
    for _ in range(tries):
        head = [rng.choice(els) for _ in range(l - 1)]
        acc = ZERO
        for x in head:
            term = ctx.mul(x, ctx.pow(x, q)) if hermitian else ctx.mul(x, x)
            acc = ctx.add(acc, term)
        last = solve(ctx, ctx.sub(target, acc))
        if last is None:
            continue
        row = head + [last]
        if all(x == ZERO for x in row):
            continue
        for _ in range(50):
            rest = [[rng.choice(els) for _ in range(l)] for _ in range(l - 1)]
            a = Matrix(ctx, [row] + rest)
            if rank(a) == l:
                return a
    return None


def diag_powers(ctx: FieldCtx, exps) -> Matrix:
    a = Matrix.zeros(ctx, len(exps), len(exps))
    for i, e in enumerate(exps):
        a.data[i][i] = ctx.element(e)
    return a


# -- sweeps --


def _divisors_in_range(order, lo, hi):
    return [k for k in range(lo, hi + 1) if order % k == 0]


def _tail_widths(k):
    out = {2}
    if k >= 5:
        out.add((k - 1) // 2)
    if k % 2 == 0:
        out.add(k // 2)
    return sorted(w for w in out if w >= 2)


def corpus_cells(family: str, qs=None, k_range=(4, 16)):
    """Deterministic (family, q, k, l, shifts) grid for the standard sweep."""
    if qs is None:
        qs = (25, 49, 81, 121, 169) if family in EUCLIDEAN_FAMILIES \
            else (3, 5, 9, 11, 13)
    cells = []
    for q in qs:
        ctx = family_ctx(family, q)
        order = ctx.n
        blocks = {"E1": 1, "E2": 1, "E3": 2, "E4": 3,
                  "H1": 1, "H2": 1, "H3": 2}.get(family)
        if family in EUCLIDEAN_FAMILIES:
            ks = [k for k in _divisors_in_range(q - 1, *k_range)
                  if blocks * k + (1 if family == "E2" else 0) <= q]
        else:
            ks = _divisors_in_range(order, *k_range)
            ks = [k for k in ks if (q - 1) % k == 0 or (q + 1) % k == 0]
        for k in ks:
            for l in _tail_widths(k):
                if l > k:
                    continue
                for shifts in _shift_grid(family, q, k, order):
                    cells.append((q, k, l, shifts))
    return cells


def _shift_grid(family, q, k, order):
    if family in ("E1", "E2"):
        return [{"delta": d} for d in (1, 2, (q - 1) // 2, q - 1)]
    if family == "H1" or family == "H2":
        return [{"delta": d} for d in (1, 2, q, order // 2)]
    if family == "E3":
        step = (q - 1) // k
        pairs = [(q - 1, d) for d in (1, 2, 3, 5, 8)] + [(1, 9), (2, 5)]
        return [{"s": s, "t": t} for s, t in pairs
                if (s - t) % step != 0]
    if family == "H3":
        step = order // k
        pairs = [(order, d) for d in (1, 2, 3)] + [(4, 1), (5, 2), (9, 1)]
        return [{"s": s, "t": t} for s, t in pairs
                if (s - t) % step != 0]
    if family == "E4":
        return [{"delta": None}]
    # H4
    return [{"delta": d} for d in range(1, min(q, 6) + 1)]


def sweep(family: str, qs=None, k_range=(4, 16), samples: int = 3,
          seed: int = 0, budget: int = 10 ** 6):
    """Deterministic seeded sweep; returns (records, exhausted_budget)."""
    rng = random.Random(seed)
    hermitian = family in HERMITIAN_FAMILIES
    records = []
    for q, k, l, shifts in corpus_cells(family, qs, k_range):
        ctx = family_ctx(family, q)
        mats = [sample_invertible(ctx, l, rng) for _ in range(samples)]
        if 2 * l == k and mats:
            # aim for the corner-zero equality clauses as well
            probe = FamilyParams(family=family, q=q, k=k, l=l,
                                 a=mats[0], **shifts)
            target = _corner_target(probe)
            if target is not None:
                extra = sample_first_row_sum(ctx, l, target, rng, hermitian)
                if extra is not None:
                    mats.append(extra)
        for a in mats:
            if len(records) >= budget:
                return records, True
            params = FamilyParams(family=family, q=q, k=k, l=l, a=a, **shifts)
            try:
                records.append(audit(params))
            except (NoClaim, DistinctnessViolation, NotADivisor,
                    InvariantViolation):
                continue
    return records, False


def _corner_target(params):
    """Value the first-row sum must take so the Gram corner vanishes."""
    ctx = params.ctx
    pred = predict(params)
    theta = pred.witnesses.get("theta")
    fam = params.family
    k, l, q = params.k, params.l, params.q
    if fam in EUCLIDEAN_FAMILIES:
        if theta is None:
            return None
        return ctx.neg(ctx.mul(ctx.from_int(k), ctx.parse(theta)))
    if (q - 1) % k:
        return None
    exp_corner = (k - l) + l * q
    if fam == "H1" or fam == "H2":
        gam = ctx.element(params.delta * exp_corner)
    elif fam == "H3":
        gam = ctx.add(ctx.element(params.s * exp_corner),
                      ctx.element(params.t * exp_corner))
    else:
        gam = ZERO
        for j in range(params.delta + 1):
            gam = ctx.add(gam, ctx.element(j * (l + (k - l) * q)))
    return ctx.neg(ctx.mul(ctx.from_int(k), gam))
