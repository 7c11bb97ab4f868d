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

The top k - l rows of the Gram never meet the corner, so specs on the
same points that differ only in A share them.  point_gram keeps them in
reduced echelon form (one echelon call) next to the l bottom point rows,
and hull_report adds the corner to those l rows only and takes the rank
of the stack.  That is exact: rank(Gram) = rank(top) + rank(bottom
reduced modulo the row space of top), and the reduced top rows span that
row space.  A families sweep cell audits 5-6 tail matrices on one set of
points and makes its PointGram once.  A PointGram keeps the spec it was
made from, and hull_report reads that spec to refuse a PointGram made for
other points, k, l or inner product; it makes its own without one.

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
                     mat_mul, rank, rank_rows, stack, transpose)

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
                    y = (w + a * e) % n
                    if x < 0:
                        x = y
                    else:
                        z = zech[(y - x) % n]
                        x = ZERO if z < 0 else (x + z) % n
                sums[e] = x
            if t == 0:
                x = ctx.add(x, at_zero)
            rows[r][c] = x
            # entry (c, r) is entry (r, c) raised to sigma
            rows[c][r] = ZERO if x < 0 else x * sigma % n
    return rows


def _with_corner(spec: GrlSpec, sigma: int, bottom) -> list[list[int]]:
    """Copies of the l bottom point rows with A A^T (sigma = 1) or
    A conj(A)^T (sigma = q) added at columns k-l..k-1."""
    ctx, top, l = spec.ctx, spec.k - spec.l, spec.l
    n, a = ctx.n, spec.a.data
    a_bar = a if sigma == 1 else conjugate(spec.a).data
    rows = [row[:] for row in bottom]
    for i in range(l):
        for j in range(i, l):
            x = ctx.add(rows[i][top + j], ctx.dot(a[i], a_bar[j]))
            rows[i][top + j] = x
            # as in the point rows, entry (j, i) is entry (i, j) ** sigma
            rows[j][top + i] = ZERO if x < 0 else x * sigma % n
    return rows


def spec_gram(spec: GrlSpec, inner_product: str) -> Matrix:
    """The spec's Gram from weighted power sums; equals
    gram(build_generator(spec), inner_product)."""
    sigma = _sigma(spec.ctx, inner_product)
    rows = _point_rows(spec, sigma)
    top = spec.k - spec.l
    return Matrix(spec.ctx, rows[:top] + _with_corner(spec, sigma, rows[top:]))


class PointGram(NamedTuple):
    """The part of the Gram that the points fix, shared by every spec with
    the same field, alpha, v, k and l as spec: sigma, the l bottom point
    rows without the corner, and the top k - l rows in reduced echelon
    form with their zero rows dropped."""
    inner_product: str
    sigma: int
    spec: GrlSpec
    top: list[list[int]]
    bottom: list[list[int]]


def point_gram(spec: GrlSpec, inner_product: str) -> PointGram:
    """The PointGram of the spec's points; one echelon call."""
    sigma = _sigma(spec.ctx, inner_product)
    rows = _point_rows(spec, sigma)
    split = spec.k - spec.l
    top = rows[:split]
    del top[len(echelon(spec.ctx, top)):]
    return PointGram(inner_product=inner_product, sigma=sigma, spec=spec,
                     top=top, bottom=rows[split:])


def hull_report(spec: GrlSpec, inner_product: str,
                points: PointGram | None = None) -> HullReport:
    """Hull of the spec's code: k - rank(Gram), no rank(G) needed since a
    valid spec has a generator of rank k.  points, from point_gram of a
    spec on the same points, spares the A-free work; GrlError if it was
    made for other points, k, l or inner product."""
    if points is None:
        points = point_gram(spec, inner_product)
    elif (points.inner_product != inner_product
          or points.spec.ctx is not spec.ctx
          or (points.spec.k, points.spec.l) != (spec.k, spec.l)
          or points.spec.alpha != spec.alpha or points.spec.v != spec.v):
        raise GrlError("the point Gram was made for other points, k, l "
                       "or inner product")
    r = rank_rows(spec.ctx, points.top +
                  _with_corner(spec, points.sigma, points.bottom))
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
