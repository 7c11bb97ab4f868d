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
(diagonal Gram) regimes.  A cell of a sweep is one FamilyParams: family,
q, k, l and the shifts, with the matrix A once one is drawn.  It derives
its field (ctx), whether it is Hermitian, its block shifts and its code
length.  predict() evaluates every hypothesis exactly and returns the
strongest applicable claim with the evaluated terms attached; audit()
then builds the code and compares the computed hull.  The hypotheses
read A only through whether the Gram corner k*X + sum a_1i^e vanishes,
so a cell has two predictions, one per corner class.  audit_cell()
audits one cell's tail matrices with one CellPoints, which makes both,
X and the A-free part of the Gram (hull.PointGram) once for all of them.
Every audit reads the predictions and X through predict(params, points),
the one prediction entry point, and its hull through CellPoints.hull(A),
which hands only A to hull.hull_report.  A cell with no claim in either
class draws no A.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import gcd

from .gf import (FIELD_SIZE_CAP, ZERO, FieldCtx, FieldTooLarge, GrlError,
                 NotADivisor, field_new, prime_factors, v_p)
from .grl import DistinctnessViolation, GrlSpec
from .hull import (EUCLIDEAN, HERMITIAN, HullReport, PointGram, hull_report,
                   point_gram)
from .linalg import Matrix, rank

EUCLIDEAN_FAMILIES = ("E1", "E2", "E3", "E4")
HERMITIAN_FAMILIES = ("H1", "H2", "H3", "H4")
FAMILIES = EUCLIDEAN_FAMILIES + HERMITIAN_FAMILIES
_FIRST_ROW_TRIES = 200  # first rows sample_first_row_sum draws


class NoClaim(GrlError):
    def __init__(self, clause: str):
        super().__init__(f"no theorem claim applies: {clause}")


@dataclass
class FamilyParams:
    family: str
    q: int          # base q; the working field is GF(q) or GF(q^2)
    k: int
    l: int
    a: Matrix | None = None
    delta: int | None = None
    s: int | None = None
    t: int | None = None

    @property
    def ctx(self) -> FieldCtx:
        return family_ctx(self.family, self.q)

    @property
    def hermitian(self) -> bool:
        return self.family in HERMITIAN_FAMILIES

    @property
    def shifts(self) -> list[int]:
        """Exponent shift of each evaluation block, in point order."""
        fam = self.family
        if fam in ("E1", "E2", "H1", "H2"):
            return [self.delta]
        if fam in ("E3", "H3"):
            return [self.s, self.t]
        if fam == "E4":
            return [0, 1, 2]
        if fam == "H4":
            return list(range(self.delta + 1))
        raise GrlError(f"unknown family {fam}")

    @property
    def length(self) -> int:
        """k points per block, plus the zero point of E2 and H2."""
        return len(self.shifts) * self.k + (self.family in ("E2", "H2"))

    def shifts_desc(self):
        if self.family in ("E3", "H3"):
            return {"s": self.s, "t": self.t}
        return {"delta": self.delta}

    def describe(self):
        """family, q, k, l, then A once one is drawn, then the shifts."""
        d = {"family": self.family, "q": self.q, "k": self.k, "l": self.l}
        if self.a is not None:
            d["A"] = self.a.to_strs()
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


@lru_cache(maxsize=None)
def family_ctx(family: str, q: int) -> FieldCtx:
    """GF(q) for E-families, GF(q^2) for H-families; cached."""
    if q > FIELD_SIZE_CAP:  # before q is factored
        raise FieldTooLarge(f"q = {q} exceeds cap {FIELD_SIZE_CAP}")
    primes = prime_factors(q)
    if len(primes) != 1:
        raise GrlError(f"{q} is not a prime power")
    p = primes[0]
    m = v_p(q, p)
    return field_new(p, m if family in EUCLIDEAN_FAMILIES else 2 * m)


def make_alpha(params: FamilyParams) -> list[int]:
    """Assembled evaluation points; raises DistinctnessViolation with the
    colliding pair and the divisibility clause that failed."""
    ctx, k = params.ctx, params.k
    if ctx.n % k:
        raise NotADivisor(f"k = {k} must divide the group order {ctx.n}")
    step = ctx.n // k
    alpha = [ctx.element(step * i + shift)
             for shift in params.shifts for i in range(1, k + 1)]
    if len(alpha) < params.length:
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


def _row_norm_sum(ctx, xs, e):
    """sum of x^e over xs: e = 2 (Euclidean) or 1+q (Hermitian)."""
    acc = ZERO
    for x in xs:
        acc = ctx.add(acc, ctx.pow(x, e))
    return acc


def _root(c, e):
    """x with x^e = c, read off the logarithm; None when e does not
    divide it (a non-square, or a non-norm outside the base field)."""
    if c == ZERO:
        return ZERO
    return c // e if c % e == 0 else None


def _shape_gap(params):
    """Why the block shifts admit no claim at all, or None; assumes k
    divides the group order."""
    fam, q, k = params.family, params.q, params.k
    step = params.ctx.n // k
    order = "(q^2-1)" if params.hermitian else "(q-1)"
    if fam in ("E3", "H3") and (params.s - params.t) % step == 0:
        return f"blocks collide: {order}/k divides s-t"
    if fam == "E4" and q - 1 in (k, 2 * k, 3 * k):
        return "q-1 in {k, 2k, 3k}"
    if fam == "H4" and not 1 <= params.delta <= q:
        return "need 1 <= delta <= q"
    if fam == "H4" and step <= params.delta:
        return f"blocks collide: {order}/k <= delta"
    return None


def _corner_slot(params, w):
    """Where a ladder reads the Gram corner k*X + sum a_1i^e: it keeps a
    witness slot for the corner (and for X as theta, E-families only),
    which predict fills with the corner of its A."""
    if not params.hermitian:
        w["theta"] = None
    w["corner"] = None


def delta_conditions(q: int, k: int, delta: int) -> list[int]:
    """Which of the five (q-1, k, delta) valuation conditions hold for the
    two-block family with shifts (0, delta); empty list means none.  Each
    condition needs delta to be 1 or a positive prime power."""
    if delta < 1:
        return []
    out = []
    a2, b2 = v_p(q - 1, 2), v_p(k, 2)
    odd_primes = [pp for pp in prime_factors(q - 1) if pp != 2]
    diff2 = a2 - b2
    d_primes = prime_factors(delta)
    two_exp = v_p(delta, 2) if d_primes in ([], [2]) else None
    if two_exp is not None and two_exp >= 1 and b2 == a2 >= 1:
        out.append(1)
    if two_exp is not None and b2 < a2 and 0 <= two_exp <= diff2 - 2:
        out.append(2)
    if len(d_primes) == 1 and d_primes[0] != 2 and diff2 != 1:
        pp = d_primes[0]
        if v_p(q - 1, pp) == v_p(k, pp) and \
                v_p(delta, pp) >= v_p(q - 1, pp) + 1:
            out.append(3)
    if two_exp is not None and two_exp >= a2:
        if any(v_p(k, pp) < v_p(q - 1, pp) for pp in odd_primes):
            out.append(4)
    if diff2 != 1:
        for pp in odd_primes:
            ediff = v_p(q - 1, pp) - v_p(k, pp)
            if ediff >= 1 and d_primes in ([], [pp]) and \
                    v_p(delta, pp) <= ediff - 1:
                out.append(5)
                break
    return out


def _none(clause, **w):
    return Prediction(claim="none", value=None, clause=clause, witnesses=w)


# -- clause ladders; w carries the narrow/half tail flags, and zero is the
# corner class: whether the Gram corner vanishes --


def _lcd_clause(prefix, zero, w):
    """LCD if the tail is narrow, or half-width with a nonzero corner."""
    if w["narrow"]:
        return Prediction("lcd", 0, f"{prefix} narrow tail", w)
    if w["half"] and not zero:
        return Prediction("lcd", 0, f"{prefix} corner nonzero", w)
    return None


def _lcd_or_hull1(prefix, zero, w, wide="tail wider than k/2"):
    """The LCD clause, otherwise hull 1 on the half-width tail (whose
    corner then vanishes)."""
    if not (w["narrow"] or w["half"]):
        return _none(wide, **w)
    return _lcd_clause(prefix, zero, w) or \
        Prediction("hull_eq", 1, f"{prefix} corner zero", w)


def _hull1_or_hull2(prefix, zero, w):
    """Hull 1, or hull 2 when the half-width corner vanishes; the ladder
    when p divides the block count."""
    if w["narrow"] or (w["half"] and not zero):
        return Prediction("hull_eq", 1, prefix, w)
    if w["half"]:
        return Prediction("hull_eq", 2, f"{prefix}, corner zero", w)
    return _none("tail wider than k/2", **w)


def precondition_gap(params: FamilyParams):
    """The clause of the first hypothesis that fails whatever A is (2 <= l
    <= k, k divides the group order, the block shapes) or None, and the
    shape witnesses once k divides the group order.  Reads no A."""
    q, k, l = params.q, params.k, params.l
    if not 2 <= l <= k:
        return "need 2 <= l <= k", {}
    if params.ctx.n % k:
        return f"k must divide {'q^2-1' if params.hermitian else 'q-1'}", {}
    w = {"narrow": 2 * l < k, "half": 2 * l == k}
    if params.hermitian:
        w["k_div_q_minus_1"] = (q - 1) % k == 0
        w["k_div_q_plus_1"] = (q + 1) % k == 0
    return _shape_gap(params), w


def _predict_class(cell, zero):
    """The prediction for every A of cell whose Gram corner is zero (or
    nonzero), with empty corner slots: the ladders read A only through
    whether its corner vanishes."""
    gap, w = precondition_gap(cell)
    if gap:
        return _none(gap, **w)
    if cell.hermitian:
        return _predict_hermitian(cell, w, zero)
    return _predict_euclidean(cell, w, zero)


def _predict_euclidean(params, w, zero):
    ctx, q, k = params.ctx, params.q, params.k
    fam = params.family
    _corner_slot(params, w)

    if fam == "E1":
        return _lcd_or_hull1("single-block", zero, w)

    if fam == "E2":
        p_div = (k + 1) % ctx.p == 0
        w["p_divides_k_plus_1"] = p_div
        if p_div:
            return _hull1_or_hull2("zero-point block, p | k+1", zero, w)
        return _lcd_clause("zero-point block", zero, w) or \
            _none("no clause for this tail/corner", **w)

    if fam == "E3":
        diff = params.s - params.t
        v2_ok = v_p(abs(diff), 2) != v_p(q - 1, 2) - v_p(k, 2) - 1
        w["v2_condition"] = v2_ok
        conds = []
        if params.s % (q - 1) == 0 or params.t % (q - 1) == 0:
            delta = params.t if params.s % (q - 1) == 0 else params.s
            conds = delta_conditions(q, k, delta)
            w["delta_conditions"] = conds
        if conds:
            return _lcd_or_hull1("two-block", zero, w, "no clause fired")
        return (v2_ok and _lcd_clause("two-block", zero, w)) or \
            _none("no clause fired", **w)

    # E4
    if ctx.p == 3:
        return _hull1_or_hull2("three-block, p = 3", zero, w)
    return _lcd_or_hull1("three-block", zero, w)


def _predict_hermitian(params, w, zero):
    ctx, q, k, l = params.ctx, params.q, params.k, params.l
    fam, order = params.family, ctx.n
    kq1, kq2 = w["k_div_q_minus_1"], w["k_div_q_plus_1"]

    if fam == "H1":
        if kq1:
            _corner_slot(params, w)
            return _lcd_or_hull1("single-block", zero, w)
        if kq2:
            return Prediction("hull_le", l, "single-block diagonal regime", w)
        return _none("k divides neither q-1 nor q+1", **w)

    if fam == "H2":
        p_div = (k + 1) % ctx.p == 0
        w["p_divides_k_plus_1"] = p_div
        if kq1:
            _corner_slot(params, w)
            if p_div:
                return _hull1_or_hull2("zero-point, p | k+1", zero, w)
            return _lcd_clause("zero-point", zero, w) or \
                _none("no clause for this tail/corner", **w)
        if kq2 and not p_div:
            return Prediction("hull_le", l, "zero-point diagonal regime", w)
        return _none("no clause fired", **w)

    if fam == "H3":
        v2d = v_p(abs(params.s - params.t), 2)
        if kq1:
            tset = {v_p(order, 2) - 1 - v_p(i + (k - i) * q, 2)
                    for i in range(1, k)}
            w["T"] = sorted(tset)
            w["v2_of_shift_difference"] = v2d
            if v2d in tset:
                return _none("no clause fired", **w)
            _corner_slot(params, w)
            return _lcd_clause("two-block", zero, w) or \
                _none("no clause fired", **w)
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
    p_div = (delta + 1) % ctx.p == 0
    w["p_divides_delta_plus_1"] = p_div
    if kq1:
        svals = [i for i in range(1, k)
                 if (delta + 1) % (order // gcd(order, i + (k - i) * q)) == 0]
        w["S_1"] = svals
        _corner_slot(params, w)
        if svals:
            # the exact-dimension statement fails for special A (and for
            # vanishing positions between l and k-l), so no claim.
            return _none("vanishing anti-diagonal positions present", **w)
        if p_div:
            return _hull1_or_hull2("multi-block, p | delta+1", zero, w)
        return _lcd_or_hull1("multi-block", zero, w)
    if kq2:
        uvals = [i for i in range(1, k - l)
                 if (delta + 1) % (order // gcd(order, i * (q + 1))) == 0]
        w["U_l"] = uvals
        if not uvals and not p_div:
            return Prediction("hull_le", l, "multi-block diagonal regime", w)
        return _none("U_l nonempty or p | delta+1", **w)
    return _none("k divides neither q-1 nor q+1", **w)


def _points_key(p: FamilyParams):
    """What fixes a cell's evaluation points, v, k and inner product: the
    cell without its tail width l."""
    return p.family, p.q, p.k, p.delta, p.s, p.t


def _cell_key(p: FamilyParams):
    return _points_key(p) + (p.l,)


class CellPoints:
    """One cell's A-free work, shared by the audits of its tail matrices:
    the prediction of each corner class and the blocks' share X of the
    Gram corner, each made when first asked for, and the A-free part of
    the Gram (hull.PointGram), made for the first A with a claim.

    grams maps _points_key to a PointGram.  Cells that differ only in l
    have the same points and power sums, so a sweep hands every cell of
    one (q, k) the same dict: the first cell on a set of points builds
    a spec and computes the power sums, and the others re-split them
    (PointGram.with_tail_width) and build no spec."""

    def __init__(self, cell: FamilyParams, grams: dict | None = None):
        self.cell = cell
        self._key = _cell_key(cell)
        self._grams = {} if grams is None else grams
        self.gram: PointGram | None = None
        self._x = None
        self._classes = {}      # corner class (is it zero) -> Prediction

    def prediction(self, zero: bool) -> Prediction:
        """The prediction for this cell's A whose Gram corner is zero (or
        nonzero), with empty corner slots."""
        if zero not in self._classes:
            self._classes[zero] = _predict_class(self.cell, zero)
        return self._classes[zero]

    @property
    def x(self) -> int:
        """X = sum of gamma^(shift * unit) over the block shifts: the
        blocks' share of the Gram corner k*X + sum a_1i^e.  It is that
        share only where the cell's ladder reads a corner (its prediction
        has a corner slot)."""
        if self._x is None:
            cell = self.cell
            q, k, l, ctx = cell.q, cell.k, cell.l, cell.ctx
            if not cell.hermitian:
                unit = k
            elif cell.family == "H4":
                unit = l + (k - l) * q
            else:
                unit = (k - l) + l * q
            x = ZERO
            for shift in cell.shifts:
                x = ctx.add(x, ctx.element(shift * unit))
            self._x = x
        return self._x

    def hull(self, a: Matrix) -> HullReport:
        """The hull of this cell's code with tail matrix a."""
        if self.gram is None:
            key = _points_key(self.cell)
            if key in self._grams:
                self.gram = self._grams[key].with_tail_width(self.cell.l)
            else:
                inner = HERMITIAN if self.cell.hermitian else EUCLIDEAN
                spec = build_spec(replace(self.cell, a=a))
                self.gram = self._grams[key] = point_gram(spec, inner)
        return hull_report(self.gram, a)


def predict(params: FamilyParams,
            points: CellPoints | None = None) -> Prediction:
    """Strongest theorem claim whose hypotheses all hold, with every
    evaluated term attached as a witness; 'none' is a valid outcome.  It
    reads A only through the Gram corner: the prediction of the corner's
    class, with the corner of params' A (and X as theta) in the corner
    slots, so it needs A only where the cell's ladder reads a corner.
    points, made for params' cell, shares the cell's A-free work;
    GrlError if it was made for another cell, or if A is needed and
    missing."""
    if points is None:
        points = CellPoints(params)
    elif _cell_key(params) != points._key:
        raise GrlError("audit params are not from this cell")
    pred = points.prediction(False)
    if "corner" not in pred.witnesses:  # this cell's ladder reads no A
        return Prediction(pred.claim, pred.value, pred.clause,
                          dict(pred.witnesses))
    if params.a is None:
        raise GrlError("this cell's prediction reads A, and params has no A")
    ctx, x = params.ctx, points.x
    corner = ctx.add(ctx.mul(ctx.from_int(params.k), x),
                     _row_norm_sum(ctx, params.a.data[0],
                                   1 + params.q if params.hermitian else 2))
    pred = points.prediction(corner == ZERO)
    w = dict(pred.witnesses)
    if not params.hermitian:
        w["theta"] = ctx.fmt(x)
    w["corner"] = ctx.fmt(corner)
    return Prediction(pred.claim, pred.value, pred.clause, w)


def audit(params: FamilyParams,
          points: CellPoints | None = None) -> AuditRecord:
    """Compute the hull of params' code and compare it against the
    prediction; GrlError unless params has an invertible l x l A.  points,
    made for params' cell, shares the cell's A-free work."""
    if params.a is None or rank(params.a) != params.l:
        raise GrlError(f"an audit needs an invertible {params.l} x "
                       f"{params.l} tail matrix A")
    if points is None:
        points = CellPoints(params)
    pred = predict(params, points)
    if pred.claim == "none":
        raise NoClaim(pred.clause)
    computed = points.hull(params.a).hull_dim
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
    els = range(ZERO, ctx.n)
    while True:
        a = Matrix(ctx, [[rng.choice(els) for _ in range(l)]
                         for _ in range(l)])
        if rank(a) == l:
            return a


def sample_first_row_sum(ctx: FieldCtx, l: int, target: int,
                         rng: random.Random, hermitian: bool) -> Matrix | None:
    """Invertible A whose first row satisfies sum a_1i^2 = target
    (Euclidean) or sum a_1i^{1+q} = target (Hermitian); None on failure."""
    els = range(ZERO, ctx.n)
    e = 1 + ctx.base_q if hermitian else 2
    for _ in range(_FIRST_ROW_TRIES):
        head = [rng.choice(els) for _ in range(l - 1)]
        last = _root(ctx.sub(target, _row_norm_sum(ctx, head, e)), e)
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
    return sorted(w for w in out if 2 <= w <= k)


def corpus_cells(family: str, qs=None, k_range=(4, 16)):
    """Deterministic (family, q, k, l, shifts) grid for the standard sweep."""
    if qs is None:
        qs = (25, 49, 81, 121, 169) if family in EUCLIDEAN_FAMILIES \
            else (3, 5, 9, 11, 13)
    cells = []
    for q in qs:
        order = family_ctx(family, q).n
        ks = _divisors_in_range(order, *k_range)
        if family in HERMITIAN_FAMILIES:
            ks = [k for k in ks if (q - 1) % k == 0 or (q + 1) % k == 0]
        for k in ks:
            for l in _tail_widths(k):
                for shifts in _shift_grid(family, q, k, order):
                    cell = FamilyParams(family=family, q=q, k=k, l=l, **shifts)
                    if cell.hermitian or cell.length <= q:
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


def audit_cell(cell: FamilyParams, rng: random.Random, samples: int,
               records: list, budget: int, grams: dict | None = None) -> bool:
    """Audit samples random invertible A on one cell, plus, on a half-width
    tail, one A aimed at a zero corner; append the record of each A that
    has a claim.  Returns True when the budget of records stops it first.
    Raises NoClaim, before it draws any A, when no corner class of the
    cell has a claim.  grams, as in CellPoints, shares the point Grams of
    cells on the same points."""
    points = CellPoints(cell, grams)
    nonzero, zero = points.prediction(False), points.prediction(True)
    if nonzero.claim == zero.claim == "none":
        raise NoClaim(nonzero.clause)
    ctx, l = cell.ctx, cell.l
    mats = [sample_invertible(ctx, l, rng) for _ in range(samples)]
    if 2 * l == cell.k and mats and "corner" in nonzero.witnesses:
        # aim for the corner-zero equality clauses as well: target -k*X
        target = ctx.neg(ctx.mul(ctx.from_int(cell.k), points.x))
        extra = sample_first_row_sum(ctx, l, target, rng, cell.hermitian)
        if extra is not None:
            mats.append(extra)
    for a in mats:
        if len(records) >= budget:
            return True
        try:
            records.append(audit(replace(cell, a=a), points))
        except NoClaim:
            continue
    return False


def sweep(family: str, qs=None, k_range=(4, 16), samples: int = 3,
          seed: int = 0, budget: int = 10 ** 6):
    """Deterministic seeded sweep; returns (records, exhausted_budget).
    A cell that no A can satisfy is skipped without drawing any A.  The
    cells of one (q, k) share their point Grams across tail widths; they
    are dropped when (q, k) changes."""
    rng = random.Random(seed)
    records = []
    at = None   # the (q, k) whose point Grams grams holds
    for q, k, l, shifts in corpus_cells(family, qs, k_range):
        if (q, k) != at:
            grams, at = {}, (q, k)
        cell = FamilyParams(family=family, q=q, k=k, l=l, **shifts)
        try:
            if audit_cell(cell, rng, samples, records, budget, grams):
                return records, True
        except NoClaim:
            continue
    return records, False
