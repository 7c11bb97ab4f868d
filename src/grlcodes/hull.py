"""Gram matrices, hull dimensions, LCD decisions, dual generators.

For a full-rank generator G the hull dimension under either inner
product is k - rank(Gram), where Gram is G G^T (Euclidean) or
G conj(G)^T (Hermitian).  The brute-force path recomputes the hull as
dim(C) + dim(C_perp) - rank of the stacked generators, independent of
the Gram shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import GrlError, NotASquareField
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


def gram_euclidean(g: Matrix) -> Matrix:
    return mat_mul(g, transpose(g))


def gram_hermitian(g: Matrix) -> Matrix:
    if g.ctx.m % 2 != 0:
        raise NotASquareField("Hermitian Gram needs GF(q^2)")
    return mat_mul(g, conj_transpose(g))


def gram(g: Matrix, inner_product: str) -> Matrix:
    if inner_product == EUCLIDEAN:
        return gram_euclidean(g)
    if inner_product == HERMITIAN:
        return gram_hermitian(g)
    raise GrlError(f"unknown inner product {inner_product!r}")


def hull_report(g: Matrix, inner_product: str) -> HullReport:
    if rank(g) != g.rows:
        raise RankDeficient("generator matrix must have full row rank")
    r = rank(gram(g, inner_product))
    h = g.rows - r
    return HullReport(inner_product=inner_product, gram_rank=r,
                      hull_dim=h, is_lcd=(h == 0))


def dual_generator(g: Matrix, inner_product: str) -> Matrix:
    """(N-k) x N generator of the dual code under the chosen product."""
    if rank(g) != g.rows:
        raise RankDeficient("generator matrix must have full row rank")
    ker = kernel_basis(g)
    if inner_product == EUCLIDEAN:
        return ker
    if inner_product == HERMITIAN:
        return conjugate(ker)
    raise GrlError(f"unknown inner product {inner_product!r}")


def hull_dim_bruteforce(g: Matrix, inner_product: str) -> int:
    """dim(C ∩ C_perp) from the rank identity on stacked generators."""
    d = dual_generator(g, inner_product)
    return g.rows + d.rows - rank(stack(g, d))
