"""Certify that a code is not (generalized) Reed-Solomon.

Three routes with different strength:

* Schur square: the span of all pairwise coordinate products of basis
  rows.  A GRS code of dimension k with 2k-1 < length has Schur square
  dimension exactly 2k-1, and the dimension is invariant under monomial
  equivalence, so any excess certifies non-GRS outright.  The dual
  variant applies the same test to the dual code.
* Cauchy column test: a standard-form generator [I | B] spans the plain
  evaluation code on known points iff every column of B extends the
  Cauchy pattern consistently.  Solving two rows for the putative new
  point and checking the rest certifies "not RS in this coordinate
  presentation" (recorded as such), or, when every column matches with
  distinct recovered points, a genuine RS identification.
* Exhaustive tiny search: for q <= 7 and length <= 8, enumerate every
  GRS row space up to column permutation and compare canonical RREFs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product

from .gf import ZERO, FieldCtx, GrlError, TooLarge
from .grl import GrlSpec, build_generator
from .hull import EUCLIDEAN, RankDeficient, dual_generator
from .linalg import Matrix, rank, rref


class DegenerateColumn(GrlError):
    pass


@dataclass
class NonGrsCertificate:
    method: str     # CauchyColumn | SchurSquare | SchurSquareDual | ExhaustiveTiny
    verdict: str    # non_grs | grs | inconclusive
    evidence: dict

    def to_json_dict(self):
        return {"method": self.method, "verdict": self.verdict,
                "evidence": self.evidence}


def elementary_symmetric(ctx: FieldCtx, alpha) -> list[int]:
    """e_0..e_m of the given points, by incremental expansion."""
    sig = [ctx.one()]
    for a in alpha:
        sig.append(ZERO)
        for j in range(len(sig) - 1, 0, -1):
            sig[j] = ctx.add(sig[j], ctx.mul(a, sig[j - 1]))
    return sig


def f_coeffs(ctx: FieldCtx, alpha, i: int) -> list[int]:
    """Coefficients (ascending) of f_i(x) = prod_{j != i} (x - alpha_j),
    from the signed power expansion over the elementary symmetrics."""
    k = len(alpha)
    sig = elementary_symmetric(ctx, alpha)
    out = []
    for j in range(1, k + 1):
        acc = ZERO
        for s in range(k - j + 1):
            term = ctx.mul(sig[s], ctx.pow(alpha[i], k - j - s))
            if s % 2:
                term = ctx.neg(term)
            acc = ctx.add(acc, term)
        out.append(acc)
    return out


def standard_form(g: Matrix):
    """RREF-based standard form: returns (B, info_cols, other_cols) where
    the code has generator [I | B] after moving info_cols to the front."""
    r, pivots = rref(g)
    if len(pivots) != g.rows:
        raise RankDeficient("generator must have full row rank")
    info = list(pivots)
    rest = [j for j in range(g.cols) if j not in pivots]
    b = Matrix(g.ctx, [[r.data[i][j] for j in rest] for i in range(g.rows)])
    return b, info, rest


def _eta(ctx, pts, i):
    acc = ctx.one()
    for s, a in enumerate(pts):
        if s != i:
            acc = ctx.mul(acc, ctx.sub(pts[i], a))
    return acc


def cauchy_column_test(ctx: FieldCtx, info_alpha, known_alpha, col):
    """Try to extend the point set so that `col` is a Cauchy column.

    info_alpha are the k points behind the identity part; known_alpha
    are all points already used (the recovered point must avoid them).
    Returns ('consistent', point, eta) or ('inconsistent', witness).
    """
    k = len(info_alpha)
    if all(x == ZERO for x in col):
        raise DegenerateColumn("all-zero column")
    zeros = [i for i, x in enumerate(col) if x == ZERO]
    if zeros:
        return "inconsistent", {"reason": "zero entry", "rows": zeros[:2]}
    etas = [_eta(ctx, info_alpha, i) for i in range(k)]
    u0 = ctx.mul(col[0], etas[0])
    u1 = ctx.mul(col[1], etas[1])
    coef = ctx.sub(u0, u1)
    if coef == ZERO:
        return "inconsistent", {"reason": "no solvable point", "rows": [0, 1]}
    rhs = ctx.sub(ctx.mul(u0, info_alpha[0]), ctx.mul(u1, info_alpha[1]))
    point = ctx.mul(rhs, ctx.inv(coef))
    eta_new = ctx.mul(u0, ctx.sub(point, info_alpha[0]))
    if eta_new == ZERO:
        return "inconsistent", {"reason": "recovered point collides", "rows": [0]}
    for i in range(2, k):
        want = ctx.mul(ctx.mul(col[i], etas[i]), ctx.sub(point, info_alpha[i]))
        if want != eta_new:
            return "inconsistent", {"reason": "row mismatch", "rows": [i],
                                    "point": ctx.fmt(point)}
    if point in known_alpha:
        return "inconsistent", {"reason": "recovered point not new",
                                "point": ctx.fmt(point)}
    return "consistent", point, eta_new


def schur_square_dim(g: Matrix) -> int:
    """Dimension of the span of all pairwise coordinate products of rows."""
    ctx = g.ctx
    rows = []
    for i in range(g.rows):
        for j in range(i, g.rows):
            rows.append([ctx.mul(a, b) for a, b in zip(g.data[i], g.data[j])])
    return rank(Matrix(ctx, rows))


def exhaustive_grs_check(g: Matrix):
    """Enumerate all GRS row spaces (q <= 7, length <= 8) and compare
    canonical RREFs under every column permutation of g."""
    ctx, k, nn = g.ctx, g.rows, g.cols
    if ctx.q > 7 or nn > 8:
        raise TooLarge("exhaustive check only for q <= 7 and length <= 8")
    if nn > ctx.q:
        return "non_grs", {"reason": f"length {nn} exceeds field size {ctx.q}"}
    els = list(ctx.elements())
    nz = list(ctx.nonzero_elements())
    targets = set()
    for pts in combinations(els, nn):
        for vrest in product(nz, repeat=nn - 1):
            v = (ctx.one(),) + vrest
            gm = Matrix(ctx, [[ctx.mul(v[j], ctx.pow(pts[j], r))
                               for j in range(nn)] for r in range(k)])
            key = tuple(tuple(row) for row in rref(gm)[0].data)
            targets.add(key)
    for perm in permutations(range(nn)):
        pg = Matrix(ctx, [[row[j] for j in perm] for row in g.data])
        key = tuple(tuple(row) for row in rref(pg)[0].data)
        if key in targets:
            return "grs", {"permutation": list(perm)}
    return "non_grs", {"reason": "no GRS row space matches any permutation"}


def nongrs_certificate(spec: GrlSpec) -> NonGrsCertificate:
    """Ordered battery: Schur square, dual Schur square, Cauchy columns,
    exhaustive tiny search; first decisive method wins."""
    g1 = build_generator(spec.with_unit_v())
    ctx, k, nn = spec.ctx, spec.k, spec.length

    # the square of a dimension-2 code spans at most 3 = 2k-1 dimensions,
    # so the Schur route can only ever distinguish for dimension >= 3
    if 2 * k - 1 < nn and k >= 3:
        dim = schur_square_dim(g1)
        if dim > 2 * k - 1:
            return NonGrsCertificate(
                method="SchurSquare", verdict="non_grs",
                evidence={"dim": dim, "grs_dim": 2 * k - 1})

    kd = nn - k
    if 2 * kd - 1 < nn and kd >= 3:
        dim = schur_square_dim(dual_generator(g1, EUCLIDEAN))
        if dim > 2 * kd - 1:
            return NonGrsCertificate(
                method="SchurSquareDual", verdict="non_grs",
                evidence={"dim": dim, "grs_dim": 2 * kd - 1})

    b, info, rest = standard_form(g1)
    if info == list(range(k)):
        info_alpha = [spec.alpha[j] for j in info]
        appended = [j for j, col in enumerate(rest) if col >= spec.n]
        recovered = []
        consistent = True
        for j in range(b.cols):
            # avoid the info points and everything recovered so far; an
            # evaluation column recovers its own point, which is fine
            res = cauchy_column_test(ctx, info_alpha, info_alpha + recovered,
                                     b.col(j))
            if res[0] == "consistent":
                recovered.append(res[1])
                continue
            consistent = False
            if j in appended:
                return NonGrsCertificate(
                    method="CauchyColumn", verdict="non_grs",
                    evidence={"column": rest[j], "fixed_presentation": True,
                              "witness": res[1]})
        if consistent:
            return NonGrsCertificate(
                method="CauchyColumn", verdict="grs",
                evidence={"points": [ctx.fmt(x) for x in recovered],
                          "fixed_presentation": True})

    if ctx.q <= 7 and nn <= 8:
        verdict, ev = exhaustive_grs_check(build_generator(spec))
        return NonGrsCertificate(method="ExhaustiveTiny", verdict=verdict,
                                 evidence=ev)

    return NonGrsCertificate(method="CauchyColumn", verdict="inconclusive",
                             evidence={"reason": "no decisive method applied"})
