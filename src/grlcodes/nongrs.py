"""Decide whether a code is generalized Reed-Solomon (GRS), with a witness.

One decision, the generalized Cauchy criterion (R. M. Roth and
G. Seroussi, IEEE Trans. IT 31(6), 1985).  With G = [I | B] on its RREF
pivots, a code of length N over GF(q) is GRS iff N <= q, B has no zero
entry, and, when min(k, N - k) >= 2, R = (1/b_ij) has rank 2 and no two
rows and no two columns of B are proportional.  A GRS code has
b_ij = c_i d_j / (x_i - y_j) on distinct points, so R has rank 2, and a
repeated point makes a 2x2 minor of B vanish.  Conversely R = U W gives
r_ij = det(P_i, Q_j) for distinct points of the projective line; N <= q
leaves one free, which a Moebius map sends to infinity.

Every witness is in G's coordinates, a row of B named by its pivot
column.  `grs`: points and multipliers v, and GRS_k(points, v) is rebuilt
and its RREF compared with G's before returning.  `non_grs`: the length,
a zero entry of B, a nonzero 3x3 minor of R or a proportional pair.
Its independent test oracles, schur_square_dim and exhaustive_grs_check,
are in grlcodes.oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product

from .gf import ZERO, FieldCtx
from .grl import GrlSpec, build_generator, grs_generator
from .linalg import Matrix, RankDeficient, rref, transpose


@dataclass
class NonGrsCertificate:
    method: str     # GeneralizedCauchy
    verdict: str    # non_grs | grs
    evidence: dict

    def to_json_dict(self):
        return {"method": self.method, "verdict": self.verdict,
                "evidence": self.evidence}


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


def _proportional_pair(ctx: FieldCtx, lines):
    """First pair of proportional lines (no zero entries), else None."""
    seen = {}
    for i, line in enumerate(lines):
        key = tuple(ctx.mul(x, ctx.inv(line[0])) for x in line)
        if key in seen:
            return [seen[key], i]
        seen[key] = i
    return None


def certify(g: Matrix) -> NonGrsCertificate:
    """The generalized Cauchy decision for the code G spans."""
    ctx, k, nn = g.ctx, g.rows, g.cols

    def non_grs(reason, **witness):
        return NonGrsCertificate("GeneralizedCauchy", "non_grs",
                                 {"reason": reason, **witness})

    def div(a, c):   # a / c on the projective line: None is infinity
        return None if c == ZERO else ctx.mul(a, ctx.inv(c))

    if nn > ctx.q:
        return non_grs("length", length=nn, q=ctx.q)
    b, info, rest = standard_form(g)
    for i, j in product(range(k), range(len(rest))):
        if b.data[i][j] == ZERO:
            return non_grs("zero entry", row=info[i], column=rest[j])
    if min(k, len(rest)) < 2:
        pts = list(islice(ctx.elements(), nn))
    else:
        for name, lines, coords in (("rows", b.data, info),
                                    ("columns", transpose(b).data, rest)):
            pair = _proportional_pair(ctx, lines)
            if pair:
                return non_grs(f"proportional {name}",
                               **{name: [coords[i] for i in pair]})
        r = Matrix(ctx, [[ctx.inv(x) for x in row] for row in b.data])
        w, cols = rref(r)
        if len(cols) > 2:
            sub = Matrix(ctx, [[row[j] for row in r.data] for j in cols[:3]])
            return non_grs("3x3 minor", rows=[info[i] for i in rref(sub)[1]],
                           columns=[rest[j] for j in cols[:3]])
        # r = U W with W the top rows of rref(r): P_i = (r_i,p0 : r_i,p1),
        # Q_j = (-w_1j : w_0j), and r_ij = det(P_i, Q_j)
        p0, p1 = cols
        pts = [div(row[p0], row[p1]) for row in r.data] + \
              [div(ctx.neg(w1), w0) for w0, w1 in zip(*w.data[:2])]
        if None in pts:  # x -> 1/(x - t) sends a free t to infinity
            t = next(x for x in ctx.elements() if x not in pts)
            pts = [ZERO if x is None else ctx.inv(ctx.sub(x, t)) for x in pts]
    # a GRS code is MDS, so info = 0..k-1, and B = D_x^-1 B_RS D_y
    one = ctx.one()
    b_rs = standard_form(grs_generator(ctx, pts, [one] * nn, k))[0].data
    vy = [div(x, y) for x, y in zip(b.data[0], b_rs[0])]
    vx = [div(ctx.mul(b_rs[i][0], vy[0]), b.data[i][0]) if vy else one
          for i in range(k)]
    if rref(grs_generator(ctx, pts, vx + vy, k))[0] != rref(g)[0]:
        raise AssertionError("GRS witness does not rebuild the generator")
    return NonGrsCertificate("GeneralizedCauchy", "grs",
                             {"points": [ctx.fmt(x) for x in pts],
                              "v": [ctx.fmt(x) for x in vx + vy]})


def nongrs_certificate(spec: GrlSpec) -> NonGrsCertificate:
    """GRS or not for the code of spec, with its witness (see certify)."""
    return certify(build_generator(spec))
