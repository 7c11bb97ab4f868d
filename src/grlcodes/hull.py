"""Gram matrices, hull dimensions, LCD decisions, dual generators.

A GrlSpec is valid when it is made, so its generator G has full rank k
and the hull dimension under either inner product is k - rank(Gram),
where Gram is G G^T (Euclidean) or G conj(G)^T (Hermitian) (Massey's LCD
criterion).  hull_report reads it off that rank alone.

Production: spec_gram builds the Gram from the spec, without G.  Row r
of G is (v_j alpha_j^r)_j followed by the tail, so with sigma = 1
(Euclidean) or sigma = q over GF(q^2) (Hermitian), entry (r, c) is the
weighted power sum

    S(r + sigma c),   S(t) = sum_j v_j^(1 + sigma) alpha_j^t,

a Hankel (Euclidean) or twisted-Hankel (Hermitian) matrix.  Each residue
of t mod q^m - 1 is summed once: 2k - 1 sums, or at most k(k+1)/2 since
entry (c, r) is entry (r, c) raised to sigma.  A point alpha_j = 0 adds
its weight at t = 0 only (0^0 = 1, the constant row of G), not at every
t divisible by the group order; and A A^T or A conj(A)^T is added to the
block at rows and columns k-l..k-1, where G has its tail.

Oracles: gram multiplies a generator out, and hull_dim_bruteforce
recomputes the hull as dim(C) + dim(C_perp) - rank of the stacked
generators, independent of the Gram shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import ZERO, GrlError
from .grl import GrlSpec
from .linalg import (Matrix, conj_transpose, conjugate, kernel_basis,
                     mat_mul, rank, stack, transpose)

EUCLIDEAN = "euclidean"
HERMITIAN = "hermitian"


class RankDeficient(GrlError):
    pass


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
    if inner_product == EUCLIDEAN:
        return mat_mul(g, transpose(g))
    if inner_product == HERMITIAN:
        return mat_mul(g, conj_transpose(g))
    raise GrlError(f"unknown inner product {inner_product!r}")


def spec_gram(spec: GrlSpec, inner_product: str) -> Matrix:
    """The spec's Gram from weighted power sums; equals
    gram(build_generator(spec), inner_product)."""
    ctx, k, l = spec.ctx, spec.k, spec.l
    if inner_product == EUCLIDEAN:
        sigma, a_bar = 1, spec.a
    elif inner_product == HERMITIAN:
        sigma, a_bar = ctx.base_q, conjugate(spec.a)
    else:
        raise GrlError(f"unknown inner product {inner_product!r}")
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
            if r >= k - l:
                x = ctx.add(x, ctx.dot(spec.a.data[r - (k - l)],
                                       a_bar.data[c - (k - l)]))
            rows[r][c] = x
            # entry (c, r) is entry (r, c) raised to sigma
            rows[c][r] = ZERO if x < 0 else x * sigma % n
    return Matrix(ctx, rows)


def hull_report(spec: GrlSpec, inner_product: str) -> HullReport:
    """Hull of the spec's code: k - rank(Gram), no rank(G) needed since a
    valid spec has a generator of rank k."""
    r = rank(spec_gram(spec, inner_product))
    h = spec.k - r
    return HullReport(inner_product=inner_product, gram_rank=r,
                      hull_dim=h, is_lcd=(h == 0))


def dual_generator(g: Matrix, inner_product: str) -> Matrix:
    """(N-k) x N generator of the dual code under the chosen product;
    RankDeficient unless g has full row rank k."""
    ker = kernel_basis(g)
    if ker.rows != g.cols - g.rows:
        raise RankDeficient("generator matrix must have full row rank")
    if inner_product == EUCLIDEAN:
        return ker
    if inner_product == HERMITIAN:
        return conjugate(ker)
    raise GrlError(f"unknown inner product {inner_product!r}")


def hull_dim_bruteforce(g: Matrix, inner_product: str) -> int:
    """dim(C ∩ C_perp) from the rank identity on stacked generators."""
    d = dual_generator(g, inner_product)
    return g.rows + d.rows - rank(stack(g, d))
