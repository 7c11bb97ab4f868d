"""Gram matrices, hull dimensions, LCD decisions, dual generators.

A GrlSpec is valid when it is made, so its generator G has full rank k
and the hull dimension under either inner product is k - rank(Gram),
where Gram is G G^T (Euclidean) or G conj(G)^T (Hermitian); hull_report
reads it off that rank alone.  hull_dim_bruteforce is the matrix-level
oracle: it recomputes the hull as dim(C) + dim(C_perp) - rank of the
stacked generators, independent of the Gram shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import GrlError
from .grl import GrlSpec, build_generator
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
    """G G^T, or G conj(G)^T over GF(q^2)."""
    if inner_product == EUCLIDEAN:
        return mat_mul(g, transpose(g))
    if inner_product == HERMITIAN:
        return mat_mul(g, conj_transpose(g))
    raise GrlError(f"unknown inner product {inner_product!r}")


def hull_report(spec: GrlSpec, inner_product: str) -> HullReport:
    """Hull of the spec's code: k - rank(Gram), no rank(G) needed since a
    valid spec has a generator of rank k."""
    r = rank(gram(build_generator(spec), inner_product))
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
