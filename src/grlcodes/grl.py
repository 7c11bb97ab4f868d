"""GRL code construction and the power-sum identities behind it.

A GRL code is spanned by words (v_1 f(a_1), ..., v_n f(a_n), beta) where
f ranges over polynomials of degree < k and beta mixes the top-l
coefficients of f through an invertible l x l matrix A.  Row r of the
generator matrix carries the monomial x^r, so the tail block holds A in
the last l rows.

power_sum and build_M state the power-sum identity the paper's hull
theorems rest on, for points on a coset gamma^t mu_k.  They are not on a
production path; tests/test_hull.py checks that the evaluation block of
the Hermitian hull.spec_gram of such a spec, v = 1, equals build_M, so
the identity checks the production hull engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import ZERO, FieldCtx, GrlError, NotADivisor, field_from_str
from .linalg import Matrix, rank


class InvariantViolation(GrlError):
    def __init__(self, reasons):
        self.reasons = list(reasons)
        super().__init__("; ".join(self.reasons))


class DistinctnessViolation(GrlError):
    pass


# spec keys and their JSON types; "v" may be omitted for all ones, but a
# "v" that is there, null included, must be a list.  A JSON true or false
# is no int, though Python's bool is one
_SPEC_KEYS = {"field": str, "k": int, "l": int, "alpha": list, "v": list,
              "A": list}


@dataclass
class GrlSpec:
    """Evaluation points alpha, column multipliers v, tail matrix A, dim k."""

    ctx: FieldCtx
    alpha: list[int]
    v: list[int]
    a: Matrix
    k: int

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def l(self) -> int:
        return self.a.rows

    @property
    def length(self) -> int:
        return self.n + self.l

    def __post_init__(self) -> None:
        """Every GrlSpec is valid: the hull, dual and distance engines rely
        on a full-rank generator, which these invariants guarantee."""
        reasons = []
        l, k, n, q = self.l, self.k, self.n, self.ctx.q
        if self.a.rows != self.a.cols:
            reasons.append("A must be square")
        if not (2 <= l <= k <= n <= q):
            reasons.append(f"need 2 <= l <= k <= n <= q, got l={l} k={k} n={n} q={q}")
        if len(set(self.alpha)) != n:
            reasons.append("alpha entries must be pairwise distinct")
        if len(self.v) != n:
            reasons.append("v must have length n")
        if any(x == ZERO for x in self.v):
            reasons.append("v entries must be nonzero")
        if self.a.rows == self.a.cols and rank(self.a) != l:
            reasons.append("A must be invertible (A in GL_l)")
        if reasons:
            raise InvariantViolation(reasons)

    @classmethod
    def from_json_dict(cls, d: dict) -> "GrlSpec":
        if not isinstance(d, dict):
            raise GrlError(f"spec must be a JSON object, not {type(d).__name__}")
        for key, kind in _SPEC_KEYS.items():
            if key == "v" and key not in d:
                continue
            value = d.get(key)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise GrlError(f"spec needs key {key!r} of type "
                               f"{kind.__name__}")
        if not all(isinstance(row, list) for row in d["A"]):
            raise GrlError("spec key 'A' must be a list of rows")
        ctx = field_from_str(d["field"])
        alpha = [ctx.parse(s) for s in d["alpha"]]
        v = [ctx.parse(s) for s in d.get("v", ["g^0"] * len(alpha))]
        a = Matrix.from_strs(ctx, d["A"])
        if a.rows != d["l"]:
            raise InvariantViolation([f"A is {a.rows}x{a.cols} but l={d['l']}"])
        return cls(ctx=ctx, alpha=alpha, v=v, a=a, k=d["k"])


def grs_generator(ctx: FieldCtx, points, v, k: int) -> Matrix:
    """k x N generator of GRS_k(points, v): row r is (v_j points_j^r)."""
    return Matrix(ctx, [[ctx.mul(x, ctx.pow(a, r)) for a, x in zip(points, v)]
                        for r in range(k)])


def build_generator(spec: GrlSpec) -> Matrix:
    """k x (n+l) generator of rank k: the GRS_k(alpha, v) block, then the
    tail, zero in the first k-l rows and A in the last l."""
    k, l = spec.k, spec.l
    tail = [[ZERO] * l] * (k - l) + spec.a.data
    rows = grs_generator(spec.ctx, spec.alpha, spec.v, k).data
    return Matrix(spec.ctx, [row + t for row, t in zip(rows, tail)])


def power_sum(ctx: FieldCtx, beta: int, s: int, t: int) -> int:
    """Sum of (beta * w)^t over the s-th roots of unity w.

    Equals beta^t * s when s | t and 0 otherwise; s must divide the
    multiplicative group order.
    """
    if beta == ZERO:
        raise GrlError("beta must be nonzero")
    if s < 1 or ctx.n % s:
        raise NotADivisor(f"{s} does not divide the group order {ctx.n}")
    if t % s:
        return ZERO
    return ctx.mul(ctx.pow(beta, t), ctx.from_int(s))


def build_M(ctx2: FieldCtx, k: int, t: int) -> Matrix:
    """The k x k Hermitian structure matrix with entries
    sum_i (gamma^t a_i)^{r + c*q} over the k-th roots a_i, for a square
    field of size q^2.  Exactly one entry per row and column is nonzero.
    """
    q = ctx2.base_q
    if ctx2.n % k:
        raise NotADivisor(f"{k} does not divide {ctx2.n}")
    g = ctx2.gen()
    beta = ctx2.pow(g, t)
    rows = []
    for r in range(k):
        rows.append([power_sum(ctx2, beta, k, r + c * q) for c in range(k)])
    return Matrix(ctx2, rows)
