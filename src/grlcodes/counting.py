"""Counting solutions of x_1^2 + ... + x_k^2 = c over GF(q).

Closed forms use the quadratic character eta.  For odd q, -1 is a square
iff q = 1 (mod 4), so eta(-1) = +1 or -1 is read off q mod 4 with no
field arithmetic.  The all-nonzero count N*(c) is one formula: with
w^2 = w2 = eta(-1) q and S_j = (w - 1)^j + (-1 - w)^j, an integer,

    2q N*(0) = 2(q-1)^k + (q-1) S_k,
    2q N*(c) = 2(q-1)^k - S_k + eta(-c) (S_{k+1} + S_k)   for c != 0.

S_j is evaluated exactly in the quadratic ring Z[w] by repeated squaring
before an exact division, so no floating point enters the pipeline and a
k in the thousands costs O(log k) ring products.  An oracle that
convolves the square-value histogram over the additive group arbitrates
the semantics; it uses only field addition and multiplication, never the
quadratic character or the closed forms.
"""

from __future__ import annotations

from collections import Counter

from .gf import (ZERO, FieldCtx, GrlError, NotADivisor, TooLarge,
                 divisor_count, quadratic_character)


class NonIntegerResult(ArithmeticError):
    """A closed form left a remainder: an internal identity broke."""


def _check_length(k: int) -> None:
    if k < 1:
        raise GrlError(f"tuple length k = {k} must be >= 1")


def count_nf(ctx: FieldCtx, k: int, c: int) -> int:
    """Total number of k-tuples over GF(q) with sum of squares c.

    Includes the all-zero tuple (a solution exactly when c = 0); use
    count_nf_excluding_zero for the count over F_q^k minus the origin.
    """
    _check_length(k)
    q = ctx.q
    eta_m1 = 1 if q % 4 == 1 else -1    # eta(-1)
    if k % 2 == 0:
        v = q - 1 if c == ZERO else -1
        return q ** (k - 1) + v * q ** (k // 2 - 1) * eta_m1 ** (k // 2)
    eta = eta_m1 ** ((k - 1) // 2) * quadratic_character(ctx, c)
    return q ** (k - 1) + q ** ((k - 1) // 2) * eta


def count_nf_excluding_zero(ctx: FieldCtx, k: int, c: int) -> int:
    return count_nf(ctx, k, c) - (1 if c == ZERO else 0)


# -- exact arithmetic in Z[w], w^2 = w2 --

def _qmul(x, y, w2):
    a, b = x
    c, d = y
    return (a * c + b * d * w2, a * d + b * c)


def _qpow(x, e, w2):
    out = (1, 0)
    while e:
        if e & 1:
            out = _qmul(out, x, w2)
        x = _qmul(x, x, w2)
        e >>= 1
    return out


def _surd_pair_sum(k: int, w2: int) -> int:
    """(w - 1)^k + (-1 - w)^k as an exact integer (w-part cancels)."""
    a = _qpow((-1, 1), k, w2)
    b = _qpow((-1, -1), k, w2)
    tot = (a[0] + b[0], a[1] + b[1])
    if tot[1] != 0:
        raise NonIntegerResult(f"surd part {tot[1]} did not cancel")
    return tot[0]


def count_nf_star(ctx: FieldCtx, k: int, c: int) -> int:
    """Number of k-tuples with all coordinates nonzero and sum of squares c."""
    _check_length(k)
    q = ctx.q
    w2 = q if q % 4 == 1 else -q
    s_k = _surd_pair_sum(k, w2)
    num = 2 * (q - 1) ** k
    if c == ZERO:
        num += (q - 1) * s_k
    else:
        eta = quadratic_character(ctx, ctx.neg(c))
        num += eta * (_surd_pair_sum(k + 1, w2) + s_k) - s_k
    if num % (2 * q):
        raise NonIntegerResult(f"{num} not divisible by 2q = {2 * q}")
    return num // (2 * q)


def brute_quadric_count(ctx: FieldCtx, k: int, c: int,
                        nonzero_only: bool = False) -> int:
    """Number of k-tuples from the pool (all of GF(q), or GF(q)^* when
    nonzero_only) whose squares sum to c; oracle for the closed forms.

    A k-fold convolution over the additive group: start from {0: 1} and
    k times add the histogram of x^2 over the pool (each nonzero square
    twice, 0 once unless nonzero_only).  O(k q^2) field operations in
    place of the q^k tuples, with the same count.

    Two guards: the work k q^2 is at most 10^7, and q^k, which bounds
    every count, has at most 4,000 digits, so the count prints under the
    4,300-digit int-to-str limit of Python 3.11.
    """
    _check_length(k)
    q = ctx.q
    if k * q * q > 10 ** 7:
        raise TooLarge(f"k*q^2 = {k}*{q}^2 beyond the 10^7 work guard")
    if q ** k >= 10 ** 4000:
        raise TooLarge(f"q^k = {q}^{k} beyond the 4,000-digit output guard")
    pool = ctx.nonzero_elements() if nonzero_only else ctx.elements()
    squares = Counter(ctx.mul(x, x) for x in pool)
    hist = Counter({ZERO: 1})
    for _ in range(k):
        nxt = Counter()
        for a, na in hist.items():
            for b, nb in squares.items():
                nxt[ctx.add(a, b)] += na * nb
        hist = nxt
    return hist[c]


def hull1_count_bound(ctx: FieldCtx, delta: int, l: int,
                      variant: str = "all") -> int:
    """Upper bound on the number of one-dimensional-hull GRL codes with
    k = 2l dividing q-1, for first rows ranging over F_q^l \\ {0}
    (variant 'all') or (F_q^*)^l (variant 'nonzero').  GrlError for
    l < 2, since a GRL code has tail width 2 <= l <= k."""
    if l < 2:
        raise GrlError(f"tail width l = {l} must be >= 2")
    q = ctx.q
    k = 2 * l
    if (q - 1) % k:
        raise NotADivisor(f"k = 2l = {k} must divide q-1 = {q - 1}")
    c = ctx.mul(ctx.from_int(k), ctx.element(delta * k + (q - 1) // 2))
    if variant == "all":
        nf = count_nf_excluding_zero(ctx, l, c)
    elif variant == "nonzero":
        nf = count_nf_star(ctx, l, c)
    else:
        raise GrlError(f"unknown variant {variant!r}")
    prod = 1
    for i in range(1, l):
        prod *= q ** l - q ** i
    return (divisor_count((q - 1) // 2) - 1) * nf * prod
