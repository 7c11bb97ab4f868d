"""Minimum distance, dual distance, Singleton defect, MDS/AMDS/NMDS labels.

Production engines, one per quantity, both signature engines: the tail
of a GRL word sees a root set or an evaluation-column set only through
its signature e_1..e_{l-1}, so each searches the distinct signatures of
the s-subsets of the points (one DP, level by level, at most
min(C(n, s), q^(l-1)) per level) instead of the subsets:

* grl_min_distance (d): length minus the largest zero set (roots among
  the points plus forced tail zeros), over root levels k-1 down to
  k-l+1, by the column ranks of C A per signature.
* dual_min_distance (d-dual): the fewest dependent columns of G, over
  evaluation-set levels k-l+1 upward, by the row ranks of A^-1 H per
  signature (H from the complete symmetric functions).

Per signature, each engine asks for the largest set of its l lines (the
columns of C A, or the rows of A^-1 H) whose rank is below r, the rank
of all l.  Rank 1 and rank 2, nearly every call on the appendix, are
decided by counting, with no elimination: lines of rank 1 are scalars,
and a set has rank 0 when all of them are zero, so the answer is the
number of zero scalars; a set of rank below 2 lies in one direction, so
the answer is the zero lines plus the largest class of proportional
lines.  Only r >= 3 ranks subsets (_largest_deficient).  A rank-1 level
(d at k-1, d-dual at k-l+1) is first decided by lookup: at most l
signatures give l-1 zero scalars, each solved for from A, and
_Levels.holds finds whether the level holds one by reading the level
below it.  The engine scans the level only when none is there and the
level can still improve on best, up to the first signature that reaches
the lowered cap.

classify runs one DP per spec: it hands one level source (_Levels) to
both engines, so each level is built once, and only when a scan or a
lookup one level up reads it.  d builds levels 1..k-2 for its lookup
and level k-1 only if it scans it, never for l = 2; d-dual reads the
levels d kept, the same dicts in the same order.  It skips the d-dual
search for an MDS code, whose dual is MDS.

Oracle: min_distance, the column search (depth-first over independent
column subsets in colex order, with incremental elimination) on a
parity-check matrix.  It stays here because the benchmark's distance gate
imports it from here; full codeword enumeration is in grlcodes.oracles.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from itertools import combinations

from . import eaqecc
from .gf import ZERO, GrlError
from .grl import GrlSpec
from .hull import (EUCLIDEAN, HERMITIAN, dual_generator, hull_report,
                   point_gram)
# rank is imported but unused: bench/test_bench.py checks that the tracer
# patches a function into every module that imports it, here and in hull
from .linalg import Matrix, echelon, rank, rank_rows  # noqa: F401
from .nongrs import nongrs_certificate

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


def _dfs_exact(ctx, cols, basis, start, remaining, counter):
    """True iff some `remaining` columns from cols[start:] complete a
    dependency on top of basis."""
    for j in range(start, len(cols) - remaining + 1):
        counter.tick()
        r = _reduce(ctx, cols[j], basis)
        p = _first_nonzero(r)
        if p < 0:
            return True
        if remaining > 1:
            nb = list(basis)
            insort(nb, (p, _normalized(ctx, r, p)))
            if _dfs_exact(ctx, cols, nb, j + 1, remaining - 1, counter):
                return True
    return False


def _min_dependent_columns(ctx, cols, nrows, budget):
    """Smallest w with w dependent columns; nrows+1 if none at w <= nrows."""
    counter = _Counter(budget)
    for w in range(1, nrows + 1):
        if _dfs_exact(ctx, cols, [], 0, w, counter):
            return w
        counter.completed = w
    return nrows + 1


def min_distance(g: Matrix, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum distance of the code generated by g, as the size of
    the smallest linearly dependent column set of a parity-check matrix."""
    h = dual_generator(g, EUCLIDEAN)
    cols = [h.col(j) for j in range(h.cols)]
    return _min_dependent_columns(h.ctx, cols, h.rows, budget)


def _extend(ctx, level, points):
    """The next signature level: each entry of ``level`` (signature of an
    s-subset -> least last index of a subset that reaches it) extended by
    every later point, e_i <- e_i + a e_{i-1} with e_0 = 1.  Any (s+1)-subset
    is an s-subset plus its last point, which lies past that subset's last
    index and so past the least one of its signature.  Points are visited
    in order, so the first index that reaches a signature is the least,
    and each level lists its entries in order of that index.  ``ready``
    collects the entries whose least last index lies below the current
    point, once each; a zero point leaves every signature as it is."""
    n, zech = ctx.n, ctx.zech
    sigs, lasts = list(level), list(level.values())
    nxt, ready, r = {}, [], 0
    for j, a in enumerate(points):
        while r < len(lasts) and lasts[r] < j:
            ready.append(sigs[r])
            r += 1
        if a < 0:
            for sig in ready:
                if sig not in nxt:
                    nxt[sig] = j
            continue
        for sig in ready:
            out, prev = [], 0
            for x in sig:
                if prev < 0:
                    y = x
                elif x < 0:
                    y = (a + prev) % n
                else:
                    z = zech[(a + prev - x) % n]
                    y = ZERO if z < 0 else (x + z) % n
                out.append(y)
                prev = x
            sig = tuple(out)
            if sig not in nxt:
                nxt[sig] = j
    return nxt


def _levels_fit(n, q, width, s, budget):
    """Whether an a-priori bound on the steps that build signature levels
    1..s fits in the budget: level i extends at most min(C(n, i-1),
    q^width) entries by at most n points.  Stops summing once it does not,
    so a long spec is refused at once."""
    cap, total, below = q ** width, 0, 1        # below = C(n, i-1)
    for i in range(1, s + 1):
        total += n * min(below, cap)
        if total > budget:
            return False
        below = below * (n - i + 1) // i
    return True


class _Levels:
    """The signature levels of -alpha, width l-1, for one spec: level s is
    built, by ``_extend`` from level s-1, when a level at or past s is
    first read.  The levels from k-l on are kept (level k-l is where
    d-dual's lookup reads; level 0, the start, when k = l); the lower
    ones are dropped once extended.  ``holds`` answers a rank-1 lookup
    from the level below, so a level is built only when a scan reads it:
    for l = 2 level k-1 is never built."""

    def __init__(self, spec):
        self.ctx, self.low = spec.ctx, spec.k - spec.l
        self.neg = [spec.ctx.neg(a) for a in spec.alpha]
        self.top, self.built = {(ZERO,) * (spec.l - 1): -1}, 0
        self.kept = {0: self.top} if self.low == 0 else {}

    def __getitem__(self, s):
        while self.built < s:
            self.top = _extend(self.ctx, self.top, self.neg)
            self.built += 1
            if self.built >= self.low:
                self.kept[self.built] = self.top
        return self.kept[s]

    def holds(self, s, targets):
        """Whether level s holds any of ``targets``, read from level s-1.
        An s-subset's signature is its last point's factor (1 + a_j x)
        times the signature of the rest, whose last index is below j.  So
        sig is in level s iff for some point j, sig / (1 + a_j x) mod x^l
        is in level s-1 with a least last index below j.  Peeling a_j off
        is e'_i = e_i - a_j e'_{i-1} with e'_0 = 1; a zero point's step
        is the identity."""
        ctx, below = self.ctx, self[s - 1]
        for sig in targets:
            for j, a in enumerate(self.neg):
                rest = sig
                if a >= 0:
                    out, prev = [], 0
                    for x in sig:
                        prev = ctx.sub(x, ctx.mul(a, prev))
                        out.append(prev)
                    rest = tuple(out)
                if below.get(rest, j) < j:
                    return True
        return False


def _largest_deficient(ctx, lines, r, lo):
    """Largest t in [lo, len(lines) - 1] such that some t of the vectors
    ``lines``, which together have rank r >= 2, have rank < r; 0 if none.

    A set of rank < 2 lies in one direction: its zero lines plus lines
    proportional to one another.  So for r = 2 the largest such set is the
    zero lines plus the largest class of proportional lines, which a count
    finds: (x, y) with both nonzero is keyed by y / x, (y - x) mod n in log
    form, and (0, y) and (x, 0) each by a key of its own.  For r >= 3 each
    t-subset is ranked, from t = len - 1 down to lo.  (Rank 1 is a count
    of zero scalars, which both engines make at the call site.)"""
    if r == 2:
        n, zeros, classes = ctx.n, 0, {}
        for x, y in lines:
            if x < 0 and y < 0:
                zeros += 1
                continue
            key = -1 if x < 0 else -2 if y < 0 else (y - x) % n
            classes[key] = classes.get(key, 0) + 1
        t = zeros + max(classes.values())
        return t if t >= lo else 0
    for t in range(len(lines) - 1, lo - 1, -1):
        if any(rank_rows(ctx, sub) < r for sub in combinations(lines, t)):
            return t
    return 0


def _inverse_rows(ctx, a):
    """The rows of A^-1, from the reduced echelon form of [A | I]."""
    l = a.rows
    aug = [row + [0 if u == i else ZERO for u in range(l)]
           for i, row in enumerate(a.data)]
    echelon(ctx, aug)
    return [row[l:] for row in aug]


def _rank_one_root_targets(ctx, a):
    """The signatures s_1..s_{l-1} whose row (s_{l-1}, ..., s_1, 1) is
    orthogonal to all columns of A but one, u0: the rows orthogonal to
    those columns are the multiples of row u0 of A^-1, and one of them
    ends in 1 iff that row's last entry, a cofactor of A over det A, is
    nonzero, that is iff the minor of A on rows 0..l-2 and the columns
    other than u0 is invertible."""
    n = ctx.n
    for w in _inverse_rows(ctx, a):
        last = w[-1]
        if last >= 0:
            yield tuple(x if x < 0 else (x - last) % n for x in w[-2::-1])


def _rank_one_evaluation_targets(ctx, a):
    """The signatures s_1..s_{l-1} of -E whose h = (h_0..h_{l-1})(E) makes
    A^-1 h zero in all entries but one, u0: h = A_u0 / A[0][u0], which
    needs A[0][u0] != 0.  s = 1/h mod x^l, by Newton's recurrence with s
    and h swapped: s_j = -(h_1 s_{j-1} + ... + h_j s_0)."""
    n = ctx.n
    for col in zip(*a.data):
        top = col[0]
        if top >= 0:
            h = [x if x < 0 else (x - top) % n for x in col]
            s = [0]
            for j in range(1, len(h)):
                s.append(ctx.neg(ctx.dot(h[1:j + 1], s[::-1])))
            yield tuple(s[1:])


def grl_min_distance(spec: GrlSpec, budget: int = DEFAULT_BUDGET,
                     levels: _Levels | None = None) -> int:
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
    reaches its cap m + l - 1.

    C only reads P_R[m-j] = e_j(-R) for j < l, so each level is searched
    once per signature e_1..e_{l-1}(-R), not once per root set: with
    s[j] = e_j(-R), row i of C A is row l-km+i of T A, T[p][j] = s[p-j].
    The budget charges the signature levels 1..k-1 before any is built.
    The levels come from ``levels`` (its own when None); the lookup at
    k-1 reads level k-2, and level k-1 is built only if it is scanned.

    At level k-1 (km = 1) C A is one row, row . A with row = the
    signature reversed and then 1, so the tail zeros of a word are the
    zero entries of that row: a count of zero dot products.  Before that
    level is scanned, the at most l signatures that would give l-1 zeros
    (_rank_one_root_targets) are looked up in it, from level k-2
    (_Levels.holds).  If one is there, d is
    length - (k + l - 2), the most zeros any level allows.  If none is, the level
    reaches at most k + l - 3: it is skipped when best already meets
    that (always so for l = 2), and otherwise scanned only until a
    signature reaches it.  Levels with km >= 2 go to _largest_deficient.
    """
    ctx, k, l, n = spec.ctx, spec.k, spec.l, spec.n
    if not _levels_fit(n, ctx.q, l - 1, k - 1, budget):
        raise BudgetExceeded(spec.length - (k - 1 + l), budget)
    if levels is None:
        levels = _Levels(spec)
    acols = [spec.a.col(u) for u in range(l)]
    best = k - 1
    for m in range(k - 1, k - l, -1):
        if m + l - 1 <= best:
            break
        km, cap = k - m, m + l - 1
        if km == 1:
            if levels.holds(m, _rank_one_root_targets(ctx, spec.a)):
                return spec.length - cap
            cap -= 1
            if cap <= best:
                continue
        for sig in levels[m]:
            if km == 1:
                row = sig[::-1] + (0,)
                t = sum(ctx.dot(row, acol) < 0 for acol in acols)
            else:
                s = (0,) + sig
                rows = [s[p::-1] for p in range(l - km, l)]
                cols = [[ctx.dot(row, acol) for row in rows]
                        for acol in acols]
                t = _largest_deficient(ctx, cols, km, best - m + 1)
            if m + t > best:
                best = m + t
                if best == cap:
                    break
    return spec.length - best


def dual_min_distance(spec: GrlSpec, budget: int = DEFAULT_BUDGET,
                      levels: _Levels | None = None) -> int:
    """Exact dual distance: the fewest columns of G that are dependent.

    Take e evaluation columns E and b tail columns T, c = e - k + l.  Rows
    0..k-l-1 of G see only E, so the coefficients on E are
    g(a_j) / (v_j P_E'(a_j)) with deg g < c, and none is left when c <= 0.
    Rows k-l+rho then read H g + A_T t = 0 with H[rho][i] =
    h_{rho+i+1-c}(E), the complete symmetric functions (h_0 = 1, h_s = 0
    for s < 0).  With K = A^-1 H, E and T are dependent iff the rows of K
    outside T have rank < c, so the least b for E is l minus the largest
    row set of K with rank < c.  For c <= l, rows 0..c-1 of H are
    anti-triangular with ones on the anti-diagonal, so rank H = c and
    b >= 1; any k + 1 columns are dependent.  H reads only h_1..h_{l-1}(E),
    which Newton's identity gives from s[i] = e_i(-E), i < l:
    h_j = -(s[1] h_{j-1} + ... + s[j] h_0).  So e runs from k - l + 1 up,
    once per signature of -E, and stops once e + 1 reaches the best.  The
    budget charges signature level e before it is read; the levels come
    from ``levels`` (its own when None), and a source that d has read
    holds level k-l and every level d built, so none is built again.

    At e = k-l+1 (c = 1) K is one column, A^-1 h, and the rows outside T
    have rank 0 iff all of them are zero, so the largest row set is the
    number of zero entries of A^-1 h.  Before that level is scanned, the
    at most l signatures that would give l-1 zeros
    (_rank_one_evaluation_targets) are looked up in it, from level k-l
    (_Levels.holds).  If one is
    there, d-dual is k - l + 2, the least weight any level allows.  If none is,
    the level gives at least k - l + 3: it is skipped when best already
    meets that (always so for l = 2), and otherwise scanned only until a
    signature reaches it.  Levels with c >= 2 go to _largest_deficient.
    """
    ctx, k, l, n = spec.ctx, spec.k, spec.l, spec.n
    if levels is None:
        levels = _Levels(spec)
    ainv = _inverse_rows(ctx, spec.a)
    best = k + 1
    for e in range(k - l + 1, k):
        if e + 1 >= best:
            break
        if not _levels_fit(n, ctx.q, l - 1, e, budget):
            raise BudgetExceeded(e + 1, budget)
        c, floor = e - k + l, e + 1
        if c == 1:
            if levels.holds(e, _rank_one_evaluation_targets(ctx, spec.a)):
                return floor
            floor += 1
            if best <= floor:
                continue
        for sig in levels[e]:
            s = (0,) + sig
            h = [0]
            for j in range(1, l):
                h.append(ctx.neg(ctx.dot(s[1:j + 1], h[::-1])))
            if c == 1:
                t = sum(ctx.dot(arow, h) < 0 for arow in ainv)
            else:
                rows = [[ctx.dot(arow[c - 1 - i:], h) for i in range(c)]
                        for arow in ainv]
                t = _largest_deficient(ctx, rows, c, l - best + e + 1)
            if e + l - t < best:
                best = e + l - t
                if best == floor:
                    break
    return best


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


def _distances(spec):
    """(d, d-dual) from one signature DP: d builds the levels its lookup
    and scans read, and d-dual reads the ones d kept.  An MDS code has an MDS dual, so its d-dual is
    k + 1 with no search."""
    levels = _Levels(spec)
    d = grl_min_distance(spec, levels=levels)
    if d == spec.length - spec.k + 1:
        return d, spec.k + 1
    return d, dual_min_distance(spec, levels=levels)


def classify(spec: GrlSpec, with_nongrs: bool = False) -> CodeReport:
    """Full report: distances, defect labels, hulls, EAQECC parameters."""
    nn = spec.length
    d, dd = _distances(spec)
    defect = nn + 1 - spec.k - d
    defect_dual = spec.k + 1 - dd
    rep = CodeReport(
        n=nn, k=spec.k, d=d, d_dual=dd, defect=defect,
        defect_dual=defect_dual, label=_label(defect, defect_dual),
        field=spec.ctx.field_str(), modulus=list(spec.ctx.modulus),
    )
    rep.hull_e = hull_report(point_gram(spec, EUCLIDEAN), spec.a)
    if spec.ctx.m % 2 == 0:
        rep.hull_h = hull_report(point_gram(spec, HERMITIAN), spec.a)
    rep.eaqecc[EUCLIDEAN] = eaqecc.derive(rep, EUCLIDEAN)
    if rep.hull_h is not None:
        rep.eaqecc[HERMITIAN] = eaqecc.derive(rep, HERMITIAN)
    if with_nongrs:
        rep.nongrs = nongrs_certificate(spec)
    return rep
