"""Gram matrices, hull dimensions, LCD decisions, dual generators.

A GrlSpec is valid when it is made, so its generator G has full rank k
and the hull dimension under either inner product is k - rank(Gram),
where Gram is G G^T (Euclidean) or G conj(G)^T (Hermitian) (Massey's LCD
criterion).  hull_report reads it off that rank alone.

Production: the Gram comes from the spec, without G.  Row r of G is
(v_j alpha_j^r)_j followed by the tail, so with sigma = 1 (Euclidean) or
sigma = q over GF(q^2) (Hermitian), entry (r, c) is the weighted power sum

    S(r + sigma c),   S(t) = sum_j v_j^(1 + sigma) alpha_j^t,

plus the tail's share.  The sums alone are the point part, a Hankel
(Euclidean) or twisted-Hankel (Hermitian) matrix fixed by alpha, v and k.
Each residue of t mod q^m - 1 is summed once: 2k - 1 sums, or at most
k(k+1)/2 since entry (c, r) is entry (r, c) raised to sigma.  A point
alpha_j = 0 adds its weight at t = 0 only (0^0 = 1, the constant row of
G), not at every t divisible by the group order.  The tail's share is the
corner A A^T or A conj(A)^T, added to the block at rows and columns
k-l..k-1, where G has its tail; spec_gram is the point part plus the
corner.

The top k - l rows of the Gram never meet the corner.  point_gram brings
them to reduced echelon form E, and reduces the l bottom point rows and
the corner columns modulo E, on the columns F that are not pivots of E.
The bottom Gram rows reduced modulo E are then that residue plus the
corner S times the reduced corner columns, so hull_report(points, A)
ranks an l x |F| matrix per A: rank(Gram) = rank(E) + its rank
(docs/decisions.md, section 6).  A PointGram holds no spec and no A,
and with_tail_width re-splits its power sums for another l.

Oracles: gram multiplies a generator out, and hull_dim_bruteforce
recomputes the hull as dim(C) + dim(C_perp) - rank of the stacked
generators, independent of the Gram shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .gf import ZERO, FieldCtx, GrlError
from .grl import GrlSpec
from .linalg import (Matrix, RankDeficient, conjugate, echelon, eliminate,
                     kernel_basis, mat_mul, rank, stack, transpose)

EUCLIDEAN = "euclidean"
HERMITIAN = "hermitian"


@dataclass
class HullReport:
    inner_product: str
    gram_rank: int
    hull_dim: int
    is_lcd: bool

    def to_json_dict(self):
        return {"inner_product": self.inner_product,
                "gram_rank": self.gram_rank,
                "hull_dim": self.hull_dim,
                "is_lcd": self.is_lcd}


def gram(g: Matrix, inner_product: str) -> Matrix:
    """Oracle: G G^T, or G conj(G)^T over GF(q^2)."""
    sigma = _sigma(g.ctx, inner_product)
    return mat_mul(g, transpose(g if sigma == 1 else conjugate(g)))


def _sigma(ctx: FieldCtx, inner_product: str) -> int:
    """x -> x^sigma is the inner product's conjugation: sigma = 1
    (Euclidean) or q over GF(q^2) (Hermitian).  Every function here reads
    the inner product through it."""
    if inner_product == EUCLIDEAN:
        return 1
    if inner_product == HERMITIAN:
        return ctx.base_q
    raise GrlError(f"unknown inner product {inner_product!r}")


def _point_rows(spec: GrlSpec, sigma: int) -> list[list[int]]:
    """The k x k weighted power sums S(r + sigma c): the Gram without its
    A corner."""
    ctx, k = spec.ctx, spec.k
    n, zech = ctx.n, ctx.zech
    # (log v_j^(1+sigma), log alpha_j) of the nonzero points; a zero point
    # keeps its weight apart for t = 0
    points, at_zero = [], ZERO
    for a, v in zip(spec.alpha, spec.v):
        if a == ZERO:
            at_zero = v * (1 + sigma) % n
        else:
            points.append((v * (1 + sigma) % n, a))
    sums = {}     # t mod (q^m - 1) -> S(t) over the nonzero points
    rows = [[ZERO] * k for _ in range(k)]
    for r in range(k):
        for c in range(r, k):
            t = r + sigma * c
            e = t % n
            x = sums.get(e)
            if x is None:
                x = ZERO
                for w, a in points:
                    if x < 0:
                        x = (w + a * e) % n
                    else:
                        z = zech[(w + a * e - x) % n]
                        x = ZERO if z < 0 else (x + z) % n
                sums[e] = x
            if t == 0:
                x = ctx.add(x, at_zero)
            rows[r][c] = x
            # entry (c, r) is entry (r, c) raised to sigma
            rows[c][r] = ZERO if x < 0 else x * sigma % n
    return rows


def _corner(a: Matrix, sigma: int) -> list[list[int]]:
    """The tail's share of the Gram, S = A A^T (sigma = 1) or A conj(A)^T
    (sigma = q), as a full l x l matrix: entry (j, i) is entry (i, j)
    raised to sigma."""
    ctx, l, a = a.ctx, a.rows, a.data
    n, dot = ctx.n, ctx.dot
    a_bar = a if sigma == 1 else [[x if x < 0 else x * sigma % n for x in row]
                                  for row in a]
    s = [[ZERO] * l for _ in range(l)]
    for i in range(l):
        for j in range(i, l):
            x = dot(a[i], a_bar[j])
            s[i][j] = x
            s[j][i] = ZERO if x < 0 else x * sigma % n
    return s


def spec_gram(spec: GrlSpec, inner_product: str) -> Matrix:
    """The spec's Gram from weighted power sums; equals
    gram(build_generator(spec), inner_product)."""
    ctx = spec.ctx
    sigma = _sigma(ctx, inner_product)
    rows = _point_rows(spec, sigma)
    top = spec.k - spec.l
    for row, s_row in zip(rows[top:], _corner(spec.a, sigma)):
        for j, x in enumerate(s_row):
            row[top + j] = ctx.add(row[top + j], x)
    return Matrix(ctx, rows)


def _add_product(ctx: FieldCtx, rows, coeffs, vectors) -> None:
    """rows += coeffs vectors in place, each vector given as its (column,
    nonzero entry) pairs."""
    n, zech = ctx.n, ctx.zech
    for row, fs in zip(rows, coeffs):
        for f, w in zip(fs, vectors):
            if f < 0:
                continue
            for c, e in w:
                t = (f + e) % n
                x = row[c]
                if x < 0:
                    row[c] = t
                else:
                    z = zech[(t - x) % n]
                    row[c] = ZERO if z < 0 else (x + z) % n


class PointGram(NamedTuple):
    """The A-free part of the Gram of a set of points, v, k and tail width
    l: the k x k power sums (the same for every l), the rank of the top
    k - l rows, the l bottom point rows reduced modulo their echelon form
    E on its free columns (residue), and each corner column reduced the
    same way, as (position, nonzero entry) pairs: a one at a free column,
    or minus E's row with that pivot (corner)."""
    inner_product: str
    sigma: int
    ctx: FieldCtx
    l: int
    sums: list[list[int]]
    top_rank: int
    residue: list[list[int]]
    corner: list[list[tuple[int, int]]]

    def with_tail_width(self, l: int) -> PointGram:
        """The PointGram of the same points for tail width l, split from
        the same power sums; one echelon call."""
        return _split(self.inner_product, self.sigma, self.ctx, self.sums, l)


def _split(inner_product: str, sigma: int, ctx: FieldCtx,
           sums: list[list[int]], l: int) -> PointGram:
    """The PointGram of the power sums sums with tail width l."""
    k = len(sums)
    if not 2 <= l <= k:
        raise GrlError(f"need 2 <= l <= k, got l={l} k={k}")
    split = k - l
    top = [row[:] for row in sums[:split]]
    pivots = echelon(ctx, top)
    free = [c for c in range(k) if c not in pivots]
    # the Gram's unit column p reduced modulo E: minus E's row p, on F
    n, half = ctx.n, ctx.half
    reduced = [[(i, (e + half) % n) for i, c in enumerate(free)
                if (e := row[c]) >= 0] for row in top]
    bottom = sums[split:]
    residue = [[row[c] for c in free] for row in bottom]
    _add_product(ctx, residue, [[row[p] for p in pivots] for row in bottom],
                 reduced)
    corner = [reduced[pivots.index(c)] if c in pivots
              else [(free.index(c), 0)] for c in range(split, k)]
    return PointGram(inner_product, sigma, ctx, l, sums, len(pivots), residue,
                     corner)


def point_gram(spec: GrlSpec, inner_product: str) -> PointGram:
    """The PointGram of the spec's points, v, k and l; it reads no A."""
    sigma = _sigma(spec.ctx, inner_product)
    return _split(inner_product, sigma, spec.ctx, _point_rows(spec, sigma),
                  spec.l)


def hull_report(points: PointGram, a: Matrix) -> HullReport:
    """Hull of the code on points' points with tail matrix a: k - rank of
    its Gram (the evaluation columns alone give G rank k, whatever a is).
    GrlError unless a is l x l over points' field."""
    ctx, l = points.ctx, points.l
    if a.ctx is not ctx or a.rows != l or a.cols != l:
        raise GrlError(f"A must be {l} x {l} over GF({ctx.field_str()})")
    rows = [row[:] for row in points.residue]
    _add_product(ctx, rows, _corner(a, points.sigma), points.corner)
    r = points.top_rank + len(eliminate(ctx, rows))
    h = len(points.sums) - r
    return HullReport(inner_product=points.inner_product, gram_rank=r,
                      hull_dim=h, is_lcd=(h == 0))


def dual_generator(g: Matrix, inner_product: str) -> Matrix:
    """(N-k) x N generator of the dual code under the chosen product;
    RankDeficient unless g has full row rank k."""
    ker = kernel_basis(g)
    if ker.rows != g.cols - g.rows:
        raise RankDeficient("generator matrix must have full row rank")
    return ker if _sigma(g.ctx, inner_product) == 1 else conjugate(ker)


def hull_dim_bruteforce(g: Matrix, inner_product: str) -> int:
    """dim(C ∩ C_perp) from the rank identity on stacked generators."""
    d = dual_generator(g, inner_product)
    return g.rows + d.rows - rank(stack(g, d))
