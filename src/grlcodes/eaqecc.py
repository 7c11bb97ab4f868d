"""Entanglement-assisted quantum code parameters from classical hull data.

An [n, k, d] code with hull dimension h under a chosen inner product
yields the pair [[n, k-h, d, n-k-h]] and [[n, n-k-h, d_dual, k-h]]; both
inherit the MDS flag of the classical code.  Parameters only, no
stabilizer construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import GrlError
from .hull import EUCLIDEAN, HERMITIAN


class MissingHull(GrlError):
    pass


@dataclass
class EaqeccParams:
    n: int
    k_q: int
    d: int
    c: int
    mds: bool
    source: str

    def to_json_dict(self):
        return {"n": self.n, "k": self.k_q, "d": self.d, "c": self.c,
                "mds": self.mds, "source": self.source}

    def csv_row(self):
        return f"{self.n},{self.k_q},{self.d},{self.c},{int(self.mds)}"


def derive(report, inner_product: str) -> tuple[EaqeccParams, EaqeccParams]:
    """The two parameter tuples obtainable from one classical code."""
    hulls = {EUCLIDEAN: report.hull_e, HERMITIAN: report.hull_h}
    if inner_product not in hulls:
        raise GrlError(f"unknown inner product {inner_product!r}")
    hull = hulls[inner_product]
    if hull is None:
        raise MissingHull(f"report carries no {inner_product} hull")
    n, k, h = report.n, report.k, hull.hull_dim
    mds = report.label == "MDS"
    primary = EaqeccParams(n=n, k_q=k - h, d=report.d, c=n - k - h,
                           mds=mds, source=f"C/{inner_product}")
    secondary = EaqeccParams(n=n, k_q=n - k - h, d=report.d_dual, c=k - h,
                             mds=mds, source=f"dual/{inner_product}")
    return primary, secondary
