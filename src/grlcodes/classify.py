"""Minimum distance, dual distance, Singleton defect, MDS/AMDS/NMDS labels.

Production engines, one per quantity:

* grl_min_distance (d): for evaluation codes with a coefficient tail,
  length minus the largest achievable zero set (roots among the points
  plus forced tail zeros), over root subsets of sizes k-1 down to k-l+1,
  the only ones that can beat k-1 zeros, leaving a size once it reaches
  its cap; the budget charges C(n, m) per size, an upper bound on the
  subsets visited.
* dual_min_distance (d-dual): the smallest dependent column set of the
  generator, by the column search (depth-first over independent column
  subsets in colex order, with incremental elimination), started at the
  bound k - l + 2 that the generator's shape proves and restricted to
  sets that contain a tail column.

Oracles:

* min_distance: the same column search on a parity-check matrix, from 1.
* enum_min_distance: full codeword enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb

from . import eaqecc
from .gf import ZERO, GrlError, TooLarge
from .grl import GrlSpec, build_generator
from .hull import EUCLIDEAN, HERMITIAN, dual_generator, hull_report
from .linalg import Matrix, mat_mul, rank
from .nongrs import elementary_symmetric, nongrs_certificate

DEFAULT_BUDGET = 10 ** 7


class BudgetExceeded(GrlError):
    def __init__(self, lower_bound: int, budget: int):
        self.lower_bound = lower_bound
        self.budget = budget
        super().__init__(
            f"distance search exceeded budget {budget}; d >= {lower_bound}")


class _Counter:
    """Search steps left; `completed` is the largest size ruled out."""
    __slots__ = ("budget", "left", "completed")

    def __init__(self, budget):
        self.budget = budget
        self.left = budget
        self.completed = 0

    def tick(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded(self.completed + 1, self.budget)


def _reduce(ctx, vec, basis):
    """Eliminate vec against an echelon basis (sorted by pivot)."""
    n, half, zech = ctx.n, ctx.half, ctx.zech
    v = vec[:]
    for piv, b in basis:
        f = v[piv]
        if f < 0:
            continue
        fneg = (f + half) % n
        for i in range(piv, len(v)):
            bi = b[i]
            if bi >= 0:
                t = (fneg + bi) % n
                a = v[i]
                if a < 0:
                    v[i] = t
                else:
                    z = zech[(t - a) % n]
                    v[i] = ZERO if z < 0 else (a + z) % n
    return v


def _first_nonzero(v):
    for i, x in enumerate(v):
        if x >= 0:
            return i
    return -1


def _normalized(ctx, v, piv):
    s = (ctx.n - v[piv]) % ctx.n
    if s == 0:
        return v
    return [x if x < 0 else (x + s) % ctx.n for x in v]


def _insert(basis, piv, vec):
    nb = list(basis)
    at = len(nb)
    for i, (p, _) in enumerate(nb):
        if p > piv:
            at = i
            break
    nb.insert(at, (piv, vec))
    return nb


def _dfs_exact(ctx, cols, basis, start, remaining, counter, lead=None):
    """True iff some `remaining` columns from cols[start:] complete a
    dependency on top of basis; the first is taken from cols[start:lead]."""
    stop = len(cols) - remaining + 1
    if lead is not None:
        stop = min(stop, lead)
    for j in range(start, stop):
        counter.tick()
        r = _reduce(ctx, cols[j], basis)
        p = _first_nonzero(r)
        if p < 0:
            return True
        if remaining > 1:
            nb = _insert(basis, p, _normalized(ctx, r, p))
            if _dfs_exact(ctx, cols, nb, j + 1, remaining - 1, counter):
                return True
    return False


def _min_dependent_columns(ctx, cols, nrows, budget, start=1, lead=None):
    """Smallest w with w dependent columns; nrows+1 if none at w <= nrows.
    `start` must be a proven bound: no fewer columns are dependent.  With
    `lead`, every dependent set of at most nrows columns must meet
    cols[:lead], and only sets that do are searched."""
    counter = _Counter(budget)
    counter.completed = start - 1
    for w in range(start, nrows + 1):
        if _dfs_exact(ctx, cols, [], 0, w, counter, lead):
            return w
        counter.completed = w
    return nrows + 1


def min_distance(g: Matrix, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum distance of the code generated by g, as the size of
    the smallest linearly dependent column set of a parity-check matrix."""
    h = dual_generator(g, EUCLIDEAN)
    cols = [h.col(j) for j in range(h.cols)]
    return _min_dependent_columns(h.ctx, cols, h.rows, budget)


def enum_min_distance(g: Matrix, limit: int = 2 * 10 ** 5) -> int:
    """Oracle: minimum weight over all q^k - 1 nonzero codewords."""
    ctx, k = g.ctx, g.rows
    if ctx.q ** k - 1 > limit:
        raise TooLarge(f"q^k = {ctx.q ** k} beyond enumeration limit")
    cols = [g.col(j) for j in range(g.cols)]
    best = g.cols
    for msg in product(list(ctx.elements()), repeat=k):
        if all(x == ZERO for x in msg):
            continue
        w = 0
        for col in cols:
            if ctx.dot(msg, col) != ZERO:
                w += 1
                if w >= best:
                    break
        best = min(best, w)
        if best == 1:
            break
    return best


def grl_min_distance(spec: GrlSpec, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum distance: length minus the most zeros of a nonzero word.

    A word (v_j f(a_j), beta), deg f < k, is zero at the roots of f among
    alpha and at the tail coordinates beta kills.  Fix a root set R of
    size m, km = k - m: f = g P_R with P_R monic and g != 0 free in km
    coefficients, and beta = g C A with C[i][u] = P_R[k-l+u-i].  For
    km <= l, row i of C has a 1 at column l-km+i and zeros to its right,
    so C, and with A in GL_l also C A, has full row rank and beta != 0:
    level m reaches at most m + l - 1 zeros.  That is k - 1, the start
    value every code reaches, at m = k-l, and below it m + l < k.  So
    levels m = k-1 down to k-l+1 are searched while m + l - 1 > best,
    and t <= l-1 tail zeros are tried; a level is left as soon as best
    reaches its cap m + l - 1.  The budget charges C(n, m) before level m
    runs, an upper bound on the root subsets it visits.
    """
    ctx, k, l, n = spec.ctx, spec.k, spec.l, spec.n
    neg = [ctx.neg(a) for a in spec.alpha]
    best = k - 1
    spent = 0
    for m in range(k - 1, k - l, -1):
        if m + l - 1 <= best:
            break
        spent += comb(n, m)
        if spent > budget:
            # m + l - 1 would be sound too; m + l keeps the lower bounds
            # the CLI prints, such as d >= 95 on [102, 6], where they were.
            raise BudgetExceeded(spec.length - max(best, m + l), budget)
        km = k - m
        for roots in combinations(range(n), m):
            # prod_{r in R} (x - r) = sum_j e_j(-R) x^(m-j); reversed, ascending
            poly = elementary_symmetric(ctx, [neg[i] for i in roots])[::-1]
            c = [[poly[k - l + u - i] if 0 <= k - l + u - i <= m else ZERO
                  for u in range(l)] for i in range(km)]
            w = mat_mul(Matrix(ctx, c), spec.a)
            for t in range(l - 1, best - m, -1):
                if any(rank(Matrix(ctx, [[r[u] for u in cols]
                                         for r in w.data])) < km
                       for cols in combinations(range(l), t)):
                    best = m + t
                    break
            if best == m + l - 1:
                break
    return spec.length - best


def dual_min_distance(spec: GrlSpec, budget: int = DEFAULT_BUDGET) -> int:
    """Exact dual distance: the smallest dependent column set of G.

    The tail columns carry A in GL_l, so they are independent and every
    dependency has a nonzero part on the evaluation columns.  Rows
    0..k-l-1 of G see only those columns (the tail is zero there), and
    any k-l of them are independent there (scaled Vandermonde on distinct
    points), so that part takes at least k-l+1 columns.  Any k evaluation
    columns are independent, so a dependency of at most k columns also
    takes a tail column.  Hence d-dual >= k - l + 2, where the column
    search starts; the tail columns come first and each searched set
    begins with one, which skips the C(n, w) independent sets of
    evaluation columns alone.
    """
    g = build_generator(spec)
    n, l = spec.n, spec.l
    cols = [g.col(n + u) for u in range(l)] + [g.col(j) for j in range(n)]
    return _min_dependent_columns(g.ctx, cols, spec.k, budget,
                                  start=spec.k - l + 2, lead=l)


@dataclass
class CodeReport:
    n: int
    k: int
    d: int
    d_dual: int
    defect: int
    defect_dual: int
    label: str
    field: str
    modulus: list[int]
    hull_e: object = None
    hull_h: object = None
    eaqecc: dict = field(default_factory=dict)
    nongrs: object = None

    @property
    def params(self):
        return (self.n, self.k, self.d)

    def to_json_dict(self):
        out = {
            "n": self.n, "k": self.k, "d": self.d, "d_dual": self.d_dual,
            "defect": self.defect, "defect_dual": self.defect_dual,
            "label": self.label, "field": self.field, "modulus": self.modulus,
        }
        if self.hull_e is not None:
            out["hull_euclidean"] = self.hull_e.to_json_dict()
        if self.hull_h is not None:
            out["hull_hermitian"] = self.hull_h.to_json_dict()
        if self.eaqecc:
            out["eaqecc"] = {
                inner: [t.to_json_dict() for t in pair]
                for inner, pair in sorted(self.eaqecc.items())
            }
        if self.nongrs is not None:
            out["nongrs"] = self.nongrs.to_json_dict()
        return out

    def csv_row(self):
        he = self.hull_e.hull_dim if self.hull_e else ""
        hh = self.hull_h.hull_dim if self.hull_h else ""
        return f"{self.n},{self.k},{self.d},{self.label},{he},{hh}"


def _label(defect, defect_dual):
    if defect == 0:
        return "MDS"
    if defect == 1 and defect_dual == 1:
        return "NMDS"
    if defect == 1:
        return "AMDS"
    return "other"


def classify(spec: GrlSpec, with_nongrs: bool = False) -> CodeReport:
    """Full report: distances, defect labels, hulls, EAQECC parameters."""
    nn = spec.length
    d = grl_min_distance(spec)
    dd = dual_min_distance(spec)
    defect = nn + 1 - spec.k - d
    defect_dual = spec.k + 1 - dd
    rep = CodeReport(
        n=nn, k=spec.k, d=d, d_dual=dd, defect=defect,
        defect_dual=defect_dual, label=_label(defect, defect_dual),
        field=spec.ctx.field_str(), modulus=list(spec.ctx.modulus),
    )
    rep.hull_e = hull_report(spec, EUCLIDEAN)
    if spec.ctx.m % 2 == 0:
        rep.hull_h = hull_report(spec, HERMITIAN)
    rep.eaqecc[EUCLIDEAN] = eaqecc.derive(rep, EUCLIDEAN)
    if rep.hull_h is not None:
        rep.eaqecc[HERMITIAN] = eaqecc.derive(rep, HERMITIAN)
    if with_nongrs:
        rep.nongrs = nongrs_certificate(spec)
    return rep
