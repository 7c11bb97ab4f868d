"""Dense exact linear algebra over a FieldCtx.

Matrices are immutable by convention: operations return new objects.
Entries are log-form ints as in :mod:`grlcodes.gf`.  The convention is
load-bearing: ``rank`` stores its answer on the matrix, so a matrix must
not be written to once anything has asked for its rank.
"""

from __future__ import annotations

from .gf import ZERO, FieldCtx, GrlError, NotASquareField


class ShapeMismatch(GrlError):
    pass


class FieldMismatch(GrlError):
    pass


class RankDeficient(GrlError):
    pass


class Matrix:
    """A rows x cols matrix over ``ctx``, stored as a list of row lists.

    ``_rank`` holds the rank once ``rank`` has computed it, so a matrix is
    proved invertible once however many checks ask.  The only in-place
    writers (``zeros`` inside ``identity``, ``families.diag_powers`` and a
    few test builders) write before anything asks for the rank, so the
    stored value never goes stale.
    """

    __slots__ = ("ctx", "rows", "cols", "data", "_rank")

    def __init__(self, ctx: FieldCtx, data):
        data = [list(row) for row in data]
        cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != cols:
                raise ShapeMismatch("ragged rows")
        self.ctx = ctx
        self.rows = len(data)
        self.cols = cols
        self.data = data
        self._rank = None

    @classmethod
    def zeros(cls, ctx, rows, cols):
        return cls(ctx, [[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, ctx, k):
        m = cls.zeros(ctx, k, k)
        for i in range(k):
            m.data[i][i] = 0
        return m

    @classmethod
    def from_strs(cls, ctx, rows):
        return cls(ctx, [[ctx.parse(s) for s in row] for row in rows])

    def to_strs(self):
        fmt = self.ctx.fmt
        return [[fmt(a) for a in row] for row in self.data]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ctx is other.ctx
                and self.data == other.data)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over GF({self.ctx.q}))"

    def col(self, j):
        return [row[j] for row in self.data]


def _check_same_field(a: Matrix, b: Matrix):
    if a.ctx is not b.ctx:
        raise FieldMismatch("matrices over different field contexts")


def transpose(m: Matrix) -> Matrix:
    return Matrix(m.ctx, [[m.data[i][j] for i in range(m.rows)]
                          for j in range(m.cols)])


def conjugate(m: Matrix) -> Matrix:
    """Entrywise x -> x^q; needs a square field."""
    if m.ctx.m % 2 != 0:
        raise NotASquareField("conjugation needs GF(q^2)")
    frob = m.ctx.frob
    return Matrix(m.ctx, [[frob(a) for a in row] for row in m.data])


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    _check_same_field(a, b)
    if a.cols != b.rows:
        raise ShapeMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    dot = a.ctx.dot
    bt = [b.col(j) for j in range(b.cols)]
    return Matrix(a.ctx, [[dot(arow, bcol) for bcol in bt] for arow in a.data])


def echelon(ctx: FieldCtx, rows) -> list[int]:
    """Bring the lists ``rows`` to reduced row echelon form in place, with
    first-nonzero pivoting, and return the pivot columns.

    The one elimination kernel: rref and rank run on it, and the distance
    engines call it on small row lists.
    """
    n, half, zech = ctx.n, ctx.half, ctx.zech
    R = rows
    nrows = len(R)
    ncols = len(R[0]) if R else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if R[i][c] >= 0:
                pr = i
                break
        if pr < 0:
            continue
        R[r], R[pr] = R[pr], R[r]
        prow = R[r]
        pv = prow[c]
        if pv:  # scale so pivot becomes gamma^0
            s = n - pv
            for j in range(c, ncols):
                if prow[j] >= 0:
                    prow[j] = (prow[j] + s) % n
        for i in range(nrows):
            if i == r:
                continue
            f = R[i][c]
            if f < 0:
                continue
            fneg = (f + half) % n
            mrow = R[i]
            for j in range(c, ncols):
                pj = prow[j]
                if pj >= 0:
                    t = (fneg + pj) % n
                    a = mrow[j]
                    if a < 0:
                        mrow[j] = t
                    else:
                        z = zech[(t - a) % n]
                        mrow[j] = ZERO if z < 0 else (a + z) % n
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with first-nonzero pivoting.

    Deterministic, so RREFs are canonical and comparable.
    """
    R = [row[:] for row in m.data]
    pivots = echelon(m.ctx, R)
    return Matrix(m.ctx, R), tuple(pivots)


def rank(m: Matrix) -> int:
    """Rank of m, computed on the first call and stored on m."""
    if m._rank is None:
        m._rank = len(rref(m)[1])
    return m._rank


def rank_rows(ctx: FieldCtx, rows) -> int:
    """Rank of the matrix with the given rows; the rows are left as they
    are."""
    return len(echelon(ctx, [list(row) for row in rows]))


def kernel_basis(m: Matrix) -> Matrix:
    """Rows span the right null space {x : M x^T = 0}."""
    ctx = m.ctx
    R, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    rows = []
    for fc in free:
        vec = [ZERO] * m.cols
        vec[fc] = 0
        for i, pc in enumerate(pivots):
            vec[pc] = ctx.neg(R.data[i][fc])
        rows.append(vec)
    return Matrix(ctx, rows)


def stack(a: Matrix, b: Matrix) -> Matrix:
    _check_same_field(a, b)
    if a.cols != b.cols:
        raise ShapeMismatch("stack needs equal column counts")
    return Matrix(a.ctx, a.data + b.data)
