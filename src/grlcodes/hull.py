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
corner S times the reduced corner columns, so hull_report ranks an
l x |F| matrix per A: rank(Gram) = rank(E) + its rank (docs/decisions.md, section 6).  A
sweep cell makes its PointGram once, and cells that differ only in l
share the power sums.  A PointGram keeps the spec it was made from, and
hull_report and point_gram read it to refuse one made for other points.

Oracles: gram multiplies a generator out, and hull_dim_bruteforce
recomputes the hull as dim(C) + dim(C_perp) - rank of the stacked
generators, independent of the Gram shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .gf import ZERO, FieldCtx, GrlError
from .grl import GrlSpec
from .linalg import (Matrix, RankDeficient, conjugate, echelon, kernel_basis,
                     mat_mul, rank, stack, transpose)

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


def _corner(spec: GrlSpec, sigma: int) -> list[list[int]]:
    """The tail's share of the Gram, S = A A^T (sigma = 1) or A conj(A)^T
    (sigma = q), as a full l x l matrix: entry (j, i) is entry (i, j)
    raised to sigma."""
    n, a, l = spec.ctx.n, spec.a.data, spec.l
    a_bar = a if sigma == 1 else [[x if x < 0 else x * sigma % n for x in row]
                                  for row in a]
    dot = spec.ctx.dot
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
    for row, s_row in zip(rows[top:], _corner(spec, sigma)):
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
    """The A-free part of the Gram of spec's points and tail width: the
    k x k power sums (the same for every l), the rank of the top k - l
    rows, the l bottom point rows reduced modulo their echelon form E on
    its free columns (residue), and each corner column reduced the same
    way, as (position, nonzero entry) pairs: a one at a free column, or
    minus E's row with that pivot (corner)."""
    inner_product: str
    sigma: int
    spec: GrlSpec
    sums: list[list[int]]
    top_rank: int
    residue: list[list[int]]
    corner: list[list[tuple[int, int]]]


def _refuse_other_points(points: PointGram, spec: GrlSpec,
                         inner_product: str, any_l: bool = False) -> None:
    """GrlError unless points was made for spec's field, alpha, v, k and
    inner product, and for its l unless any_l."""
    ref = points.spec
    if (points.inner_product != inner_product or ref.ctx is not spec.ctx
            or ref.k != spec.k or ref.alpha != spec.alpha
            or ref.v != spec.v or not (any_l or ref.l == spec.l)):
        raise GrlError("the point Gram was made for other points, k, l "
                       "or inner product")


def point_gram(spec: GrlSpec, inner_product: str,
               shared: PointGram | None = None) -> PointGram:
    """The PointGram of the spec's points; one echelon call.  shared, a
    PointGram of the same points with any l, lends its power sums;
    GrlError if it was made for other points, k or inner product."""
    ctx, k = spec.ctx, spec.k
    if shared is None:
        sigma = _sigma(ctx, inner_product)
        sums = _point_rows(spec, sigma)
    else:
        _refuse_other_points(shared, spec, inner_product, any_l=True)
        sigma, sums = shared.sigma, shared.sums
    split = k - spec.l
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
    return PointGram(inner_product=inner_product, sigma=sigma, spec=spec,
                     sums=sums, top_rank=len(pivots), residue=residue,
                     corner=corner)


def hull_report(spec: GrlSpec, inner_product: str,
                points: PointGram | None = None) -> HullReport:
    """Hull of the spec's code: k - rank(Gram), no rank(G) needed since a
    valid spec has a generator of rank k.  points, from point_gram of a
    spec on the same points, spares the A-free work; GrlError if it was
    made for other points, k, l or inner product."""
    if points is None:
        points = point_gram(spec, inner_product)
    else:
        _refuse_other_points(points, spec, inner_product)
    rows = [row[:] for row in points.residue]
    _add_product(spec.ctx, rows, _corner(spec, points.sigma), points.corner)
    r = points.top_rank + len(echelon(spec.ctx, rows))
    h = spec.k - r
    return HullReport(inner_product=inner_product, gram_rank=r,
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
