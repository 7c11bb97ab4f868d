"""Brute-force oracles, kept for the tests: no production module imports
this one, so no command process loads it.

* ``_conway_search``: the Conway polynomial C_{p,m} by search, over
  little-endian coefficient lists (``_ptrim`` .. ``_ppowmod``,
  ``_irreducible``, ``_subfield_compatible``, ``_poly_order_is``); every
  line of ``conway.txt`` and every C_{p,1} that ``gf._conway_poly``
  finds from the least primitive root is checked against it.  It finds
  its subfield polynomials and r1 with itself, so it stays independent of
  what it checks.
* elementary_symmetric: the oracle for classify's signature levels.
* schur_square_dim and exhaustive_grs_check: independent checks of the
  generalized Cauchy decision of nongrs.
* enum_min_distance: the minimum distance by full codeword enumeration.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product

from .gf import ZERO, FieldCtx, TooLarge, prime_factors
from .grl import grs_generator
from .linalg import Matrix, rank, rref


# -- polynomial helpers over GF(p), little-endian coefficient lists --


def _ptrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(f, g, p):
    # g monic
    f = f[:]
    dg = len(g) - 1
    while len(f) - 1 >= dg and f:
        c = f[-1]
        if c:
            shift = len(f) - 1 - dg
            for i in range(dg + 1):
                f[shift + i] = (f[shift + i] - c * g[i]) % p
        f.pop()
    return _ptrim(f)


def _pgcd(a, b, p):
    a, b = a[:], b[:]
    while b:
        inv = pow(b[-1], p - 2, p)
        bm = [(x * inv) % p for x in b]
        a, b = b, _pmod(a, bm, p)
    return a


def _ppowmod(base, e, mod, p):
    result = [1]
    base = _pmod(base[:], mod, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), mod, p)
        base = _pmod(_pmul(base, base, p), mod, p)
        e >>= 1
    return result


def _irreducible(f, p):
    m = len(f) - 1
    x = [0, 1]
    xp = x[:]
    for _ in range(m // 2):
        xp = _ppowmod(xp, p, f, p)
        diff = xp[:]
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(f, _ptrim(diff), p)
        if len(g) > 1:
            return False
    return True


def _poly_order_is(f, p, order):
    """Whether x has multiplicative order exactly `order` mod the monic
    irreducible f (order = p^deg(f) - 1 means x is primitive)."""
    x = [0, 1]
    if _ppowmod(x, order, f, p) != [1]:
        return False
    return all(_ppowmod(x, order // r, f, p) != [1]
               for r in prime_factors(order))


def _subfield_compatible(f, p, subs):
    """Whether x^((p^m - 1)/(p^d - 1)) mod f is a root of C_{p,d} for
    every (d, C_{p,d}) in subs, m = deg f: the norm of x into each proper
    subfield GF(p^d) is that subfield's generator."""
    q = p ** (len(f) - 1)
    for d, g in subs:
        y = _ppowmod([0, 1], (q - 1) // (p ** d - 1), f, p)
        acc: list[int] = []
        for c in reversed(g):  # Horner: acc = acc*y + c
            acc = _pmod(_pmul(acc, y, p), f, p)
            if c:
                if acc:
                    acc[0] = (acc[0] + c) % p
                    acc = _ptrim(acc)
                else:
                    acc = [c]
        if acc:
            return False
    return True


@lru_cache(maxsize=None)
def _conway_search(p, m):
    """Conway polynomial C_{p,m} by search; the oracle the table and
    gf's C_{p,1} are checked against.

    Minimal monic primitive polynomial of degree m under the standard
    ordering (coefficients twisted by alternating signs, compared from
    the top degree down), compatible with the Conway polynomials of all
    proper subfields.  Feasible here because fields are capped small.

    The packed word b_{m-1}...b_0 (b_0 its last digit) stands for the
    polynomial with c_i = (-1)^(m-i) b_i.  For m > 1 only the words with
    b_0 = r1, the root of C_{p,1}, are walked: compatibility with GF(p)
    says the norm of x, (-1)^m c_0 = b_0, is r1.  That keeps p^(m-1) of
    the p^m words in the same order, so the first word that passes is
    the same.  A word must pass all three tests below, so their order
    cannot change the result; it is the order that measured fastest.
    The subfield polynomials come from this search too, never from the
    table, so the oracle stays independent of what it checks.
    """
    q = p ** m
    # GF(p) is settled by the walk; the largest subfield rejects the most
    subs = [(d, _conway_search(p, d))
            for d in range(m // 2, 1, -1) if m % d == 0]
    start, step = (-_conway_search(p, 1)[0] % p, p) if m > 1 else (0, 1)
    for packed in range(start, q, step):
        coeffs = [0] * m + [1]
        rest = packed
        for i in range(m):
            rest, b = divmod(rest, p)
            coeffs[i] = (b if (m - i) % 2 == 0 else -b) % p
        if (_irreducible(coeffs, p)
                and _subfield_compatible(coeffs, p, subs)
                and _poly_order_is(coeffs, p, q - 1)):
            return coeffs
    raise AssertionError(f"no Conway polynomial found for ({p}, {m})")


def elementary_symmetric(ctx: FieldCtx, alpha) -> list[int]:
    """e_0..e_m of the given points, by incremental expansion.

    Kept only as a test oracle for the signature levels that
    classify's distance engines build."""
    sig = [ctx.one()]
    for a in alpha:
        sig.append(ZERO)
        for j in range(len(sig) - 1, 0, -1):
            sig[j] = ctx.add(sig[j], ctx.mul(a, sig[j - 1]))
    return sig


def schur_square_dim(g: Matrix) -> int:
    """Dimension of the span of all pairwise coordinate products of rows."""
    ctx = g.ctx
    rows = []
    for i in range(g.rows):
        for j in range(i, g.rows):
            rows.append([ctx.mul(a, b) for a, b in zip(g.data[i], g.data[j])])
    return rank(Matrix(ctx, rows))


def _rref_key(m: Matrix) -> bytes:
    return bytes(x + 1 for row in rref(m)[0].data for x in row)


@lru_cache(maxsize=64)
def _grs_row_spaces(ctx: FieldCtx, k: int, nn: int) -> frozenset:
    """RREF keys of every GRS_k(points, v) with sorted points and v_0 = 1."""
    out = set()
    for pts in combinations(ctx.elements(), nn):
        for vrest in product(ctx.nonzero_elements(), repeat=nn - 1):
            out.add(_rref_key(grs_generator(ctx, pts, (ctx.one(),) + vrest,
                                                k)))
    return frozenset(out)


def exhaustive_grs_check(g: Matrix):
    """Enumerate all GRS row spaces (q <= 7, length <= 8) and compare
    canonical RREFs under every column permutation of g.  The row spaces
    of each (field, k, length) are enumerated once per process."""
    ctx, k, nn = g.ctx, g.rows, g.cols
    if ctx.q > 7 or nn > 8:
        raise TooLarge("exhaustive check only for q <= 7 and length <= 8")
    if nn > ctx.q:
        return "non_grs", {"reason": f"length {nn} exceeds field size {ctx.q}"}
    targets = _grs_row_spaces(ctx, k, nn)
    for perm in permutations(range(nn)):
        pg = Matrix(ctx, [[row[j] for j in perm] for row in g.data])
        if _rref_key(pg) in targets:
            return "grs", {"permutation": list(perm)}
    return "non_grs", {"reason": "no GRS row space matches any permutation"}


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
