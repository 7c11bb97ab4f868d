"""Exact arithmetic in GF(p^m) for odd primes p.

Elements are stored in log form: the int -1 (``ZERO``) is the additive
zero, and e in [0, q-2] stands for gamma^e where gamma is the fixed
primitive element of the context.  Multiplication is exponent addition;
addition goes through a Zech logarithm table.

The modulus is the Conway polynomial C_{p,m} and gamma the class of x.
For m >= 2 it is read from the committed table ``conway.txt`` when the
first such field is made, and C_{p,1} is x - r for r the smallest
primitive root mod p; the tests check both against the search in
``grlcodes.oracles``, which no command loads.

The tables index elements by packed coefficient ids (id = sum c_i p^i in
the polynomial basis).  They come from the permutation "times gamma" on
the ids, built one digit column at a time for all rows at once: one walk
of the orbit of 1 writes exp and turns the permutation into log in place,
and the Zech table is one gather from log.  exp and log are 32-bit
``array('i')`` tables (every id and log is below ``FIELD_SIZE_CAP``);
zech, which every addition reads, stays a list, since CPython specialises
list subscripts and not array subscripts.

A large field, whose whole tables cost ``FILL_FLOOR`` single entries or
more, starts with memo dicts instead: each entry is computed the first
time it is read, in packed-int polynomial arithmetic (gamma^e by square
and multiply, a log by Pohlig-Hellman), and once the fills reach the
count that costs as much as the whole build, the field builds its whole
tables as above.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from math import prod

FIELD_SIZE_CAP = 1 << 20

# a field whose whole tables cost fewer fills than this builds them when
# made; a larger one fills entries on demand (docs/decisions.md, section 7)
FILL_FLOOR = 256

ZERO = -1


class GrlError(ValueError):
    """Base of every error the library raises for bad input or an unmet
    precondition; the command line maps it to exit code 2."""


class NotPrime(GrlError):
    pass


class EvenCharacteristic(GrlError):
    pass


class FieldTooLarge(GrlError):
    pass


class NotASquareField(GrlError):
    pass


class NotADivisor(GrlError):
    pass


class TooLarge(GrlError):
    """An exhaustive search or enumeration is beyond its size guard."""


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == [n]


def v_p(x: int, p: int) -> int:
    """Largest v with p^v | x, for x >= 1."""
    if x < 1:
        raise GrlError("v_p requires x >= 1")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def divisor_count(x: int) -> int:
    """Number of positive divisors of x >= 1."""
    if x < 1:
        raise GrlError("divisor_count requires x >= 1")
    return prod(v_p(x, r) + 1 for r in prime_factors(x))


def prime_factors(x: int) -> list[int]:
    """Sorted distinct prime factors of x >= 1."""
    out = []
    d = 2
    while d * d <= x:
        if x % d == 0:
            out.append(d)
            while x % d == 0:
                x //= d
        d += 1
    if x > 1:
        out.append(x)
    return out


def _prime_powers(x: int) -> list[int]:
    """The prime powers r^v || x, for x >= 1."""
    return [r ** v_p(x, r) for r in prime_factors(x)]


def _break_even(q: int, m: int) -> int:
    """How many fills cost as much as building the whole tables of
    GF(q = p^m).

    In units of one step of the orbit walk, the build costs ~q.  A fill
    in ``_packed_arith`` takes one power of x and one descent of the tree
    of the k prime powers r^v || q - 1, ~(k + 2) powers of q.bit_length()
    products at ~(m + 1)/2 steps a product; for m = 1 the powers are
    ``pow``, ~3 steps each.  The first fills build a table of r^v roots
    of unity per prime power, ~m + 1 steps a root (calibrated in
    docs/decisions.md, section 7).
    """
    powers = _prime_powers(q - 1)
    power = 3 if m == 1 else (m + 1) * q.bit_length() // 2
    return (q - (m + 1) * sum(powers)) // (power * (len(powers) + 2))


def _conway_poly(p, m):
    """Conway polynomial C_{p,m}, little-endian coefficients, for a field
    ``FieldCtx`` accepts: for m >= 2 the line of the committed table
    ``conway.txt``, and for m = 1 x - r, r the least primitive root mod p
    (docs/decisions.md, section 10)."""
    if m == 1:
        cofactors = [(p - 1) // f for f in prime_factors(p - 1)]
        r = next(r for r in range(2, p)
                 if all(pow(r, c, p) != 1 for c in cofactors))
        return [-r % p, 1]
    # each line is "p m c_0 ... c_m" and follows a newline; parse just one
    text = _conway_text()
    start = text.index(f"\n{p} {m} ") + 1
    return [int(c) for c in text[start:text.index("\n", start)].split()[2:]]


@lru_cache(maxsize=None)
def _conway_text():
    """The table ``conway.txt``, read when the first m >= 2 field is made."""
    # imported here, not with gf, which every command process loads
    from importlib import resources
    return resources.files("grlcodes").joinpath("conway.txt").read_text()


def _packed_arith(p, m, f):
    """Arithmetic mod the monic f of degree m over GF(p) on packed ints,
    coefficient i in bits [i*s, (i+1)*s): s, ``reduce`` (a product, or a
    square times x, to canonical form), ``power`` (a^e, e >= 1) and
    ``xpower`` (x^e).  A product is one int multiply, and s is wide enough
    that no slot carries before ``reduce`` folds in the high slots and
    takes each slot mod p (docs/decisions.md, section 7).  For m = 1 these
    are ``%`` and ``pow``."""
    s = ((2 * m - 1) * (p - 1) ** 2).bit_length() + 1
    if m == 1:
        g = -f[0] % p
        return s, p.__rmod__, lambda a, e: pow(a, e, p), lambda e: pow(g, e, p)
    mask, top = (1 << s) - 1, m * s
    low, shifts = (1 << top) - 1, range(top - s, -1, -s)
    red, c = [], [-a % p for a in f[:m]]
    for _ in range(m):   # c = x^(m+j) mod f, then times x
        red.append(sum(a << i * s for i, a in enumerate(c)))
        c = [(a - c[-1] * b) % p for a, b in zip([0] + c, f[:m])]

    def reduce(t):
        hi = t >> top
        t &= low
        for r in red:
            if not hi:
                break
            t += (hi & mask) % p * r
            hi >>= s
        out = 0
        for i in shifts:
            out = out << s | (t >> i & mask) % p
        return out

    def power(a, e):
        r = a
        for bit in bin(e)[3:]:
            r = reduce(r * r)
            if bit == "1":
                r = reduce(r * a)
        return r

    def xpower(e):
        r = 1
        for bit in bin(e)[2:]:
            r = reduce(r * r << s if bit == "1" else r * r)
        return r
    return s, reduce, power, xpower


def _times_x(f, p):
    """The map y -> x*y mod the monic f over GF(p) on packed ids (id =
    sum c_i p^i): entry y is the id of x*y.

    For y = hi*p^(m-1) + rest, x*y is rest shifted up one digit plus
    hi*x^m = -hi*sum_{i<m} f_i x^i, so its digit i is
    (y_{i-1} - hi*f_i) mod p.  The row of each hi is thus a Kronecker sum
    of one column per digit, and the column of digit i >= 1 is its place
    values rotated by -hi*f_i; every row gains digit i in one
    comprehension over all rows.
    """
    out = [-hi * f[0] % p for hi in range(p)]
    for i in range(1, len(f) - 1):
        place = [d * p ** i for d in range(p)]
        width = p ** (i - 1)
        rows = [out[hi * width:(hi + 1) * width] for hi in range(p)]
        shifts = [-hi * f[i] % p for hi in range(p)]
        out = [r + t for s, row in zip(shifts, rows)
               for t in place[s:] + place[:s] for r in row]
    return out


class _Memo(dict):
    """One of the exp, log and zech tables of a field that fills them on
    demand: a missing entry is computed when first read, then kept.  The
    field builds its whole tables once its fills reach the break-even
    count; a memo a caller still holds then reads its misses from them."""

    __slots__ = ("ctx", "table")

    def __init__(self, ctx, table):
        super().__init__()
        self.ctx, self.table = ctx, table

    def __missing__(self, key):
        ctx = self.ctx
        if not 0 <= key < (ctx.q if self.table == 1 else ctx.n):
            raise IndexError(f"table index {key} out of range")
        ctx._fills_left -= 1
        if ctx._fills_left > 0:
            val = ctx._fill(self.table, key)
        else:
            val = ctx.tables()[self.table][key]
        self[key] = val
        return val


class FieldCtx:
    """Immutable GF(p^m) context with exp/log/Zech tables.

    The modulus is the Conway polynomial C_{p,m} (``_conway_poly``: the
    committed table for m >= 2, x - r for the least primitive root r for
    m = 1) and gamma is the class of x, whose full order the build
    checks.  That pins elements to the convention of the standard
    computer-algebra systems, so element tables written as powers of
    gamma are portable; a context is fully determined by (p, m).  For
    m = 1 this makes gamma the smallest primitive root mod p.

    ``exp`` (log -> id) and ``log`` (id -> log) are ``array('i')``, 4 bytes
    an entry; ``zech`` (e -> log(1 + gamma^e)) is a list, for the addition
    loops' faster subscripts.  A field whose whole build costs
    ``FILL_FLOOR`` fills or more (GF(99991), GF(7^6) and GF(1019^2), not
    GF(3^10)) starts with the three as ``_Memo`` dicts filled on demand by
    ``_fill``, with the same values at the same subscripts, and builds them
    whole after ``_break_even`` fills; ``tables()`` returns them whole in
    either mode.
    """

    __slots__ = ("p", "m", "q", "n", "half", "modulus",
                 "exp", "log", "zech", "_frob_mult", "_fills_left", "_arith",
                 "_tree", "_roots")

    def __init__(self, p: int, m: int = 1):
        if p == 2 or (p > 2 and p % 2 == 0):
            raise EvenCharacteristic("characteristic must be odd")
        if m < 1:
            raise GrlError("extension degree must be >= 1")
        # checked before p is factored; 2^m > the cap once m reaches its
        # bit length, so a huge m is refused without computing p^m
        if p > 1 and (m >= FIELD_SIZE_CAP.bit_length()
                      or p ** m > FIELD_SIZE_CAP):
            size = f"{p}^{m}" if m > 1 else p
            raise FieldTooLarge(f"q = {size} exceeds cap {FIELD_SIZE_CAP}")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        q = p ** m
        self.p = p
        self.m = m
        self.q = q
        self.n = q - 1          # multiplicative group order
        self.half = (q - 1) // 2  # log of -1
        self.modulus = _conway_poly(p, m)
        self._frob_mult = p ** (m // 2) if m % 2 == 0 else None
        self._fills_left = _break_even(q, m)
        if self._fills_left < FILL_FLOOR:
            self._build_tables()
            return
        self._arith = _packed_arith(p, m, self.modulus)
        xpower = self._arith[3]
        # no walk proves gamma primitive here, so prove it directly
        if xpower(self.n) != 1 or any(xpower(self.n // r) == 1
                                      for r in prime_factors(self.n)):
            raise AssertionError("gamma does not have order q-1")
        # Pohlig-Hellman: a leaf (r^v, the CRT weight that is 1 mod r^v and
        # 0 mod its cofactor c) per prime power r^v || q - 1, joined two
        # smallest first into nodes (product, left, right), which keeps
        # the exponent bits of a descent few (docs/decisions.md, section 7)
        tree = []
        for rv in _prime_powers(self.n):
            c = self.n // rv
            tree.append((rv, c * pow(c, -1, rv)))
        while len(tree) > 1:
            tree.sort()
            a, b = tree.pop(0), tree.pop(0)
            tree.append((a[0] * b[0], a, b))
        self._tree = tree[0]
        self._roots = {}
        self.exp, self.log, self.zech = (_Memo(self, t) for t in range(3))

    def tables(self):
        """The whole ``(exp, log, zech)``, as ``_build_tables`` makes them;
        a field filling on demand builds them here, once."""
        if type(self.zech) is _Memo:
            self._build_tables()
        return self.exp, self.log, self.zech

    def _fill(self, table: int, key: int) -> int:
        """Entry ``key`` (in range) of exp (table 0), log (1) or zech (2) of
        a field filling on demand, computed alone in ``_packed_arith``:
        gamma^e is x^e mod the modulus, and a log comes from Pohlig-Hellman,
        y raised to (q - 1)/r^v for each prime power r^v || q - 1 by one
        descent of ``_tree``, each residue read off a table of the r^v-th
        roots of unity that the first fill to need it builds."""
        p, n = self.p, self.n
        s, reduce, power, xpower = self._arith
        mask = (1 << s) - 1
        if table == 1:
            y, i = 0, 0
            while key:
                key, c = divmod(key, p)
                y, i = y | c << i, i + s
        else:
            y = xpower(key)
            if table == 0:
                key = 0
                for i in range(self.m * s - s, -1, -s):
                    key = key * p + (y >> i & mask)
                return key
            y += 1 - p if y & mask == p - 1 else 1   # 1 + gamma^e
        if not y:
            return ZERO
        e, todo = 0, [(y, self._tree)]
        while todo:
            y, node = todo.pop()
            if len(node) == 3:   # each side gets y to the other's product
                _, a, b = node
                todo += (power(y, b[0]), a), (power(y, a[0]), b)
                continue
            rv, weight = node
            roots = self._roots.get(rv)
            if roots is None:   # zeta^j -> j for zeta = gamma^((q-1)/rv)
                zeta, cur, roots = xpower(n // rv), 1, {}
                for j in range(rv):
                    roots[cur] = j
                    cur = reduce(cur * zeta)
                self._roots[rv] = roots
            # y = gamma^L reaches this leaf as zeta^(L mod rv)
            e += roots[y] * weight
        return e % n

    def _build_tables(self):
        p, n = self.p, self.n
        # exp and the permutation that becomes log are int32 arrays: the
        # walk's random reads and writes touch 4-byte slots, not scattered
        # int objects, and no int object is kept, then freed, per entry
        nxt = array("i", _times_x(self.modulus, p))
        # walk the orbit of 1: each slot is read once, then holds its log.
        # Times gamma is a bijection when the modulus has a nonzero
        # constant term, so the walk ends on 1 without reaching id 0
        # exactly when gamma has order n: an early return reads log[1] = 0
        # and steps onto id 0, so the walk ends there or writes a positive
        # log into slot 0
        exp = array("i", [0]) * n
        cur = 1
        for e in range(n):
            exp[e] = cur
            nxt[cur], cur = e, nxt[cur]
        log = nxt
        if cur != 1 or log[0] != 0 or not self.modulus[0]:
            raise AssertionError("gamma does not have order q-1")
        log[0] = ZERO
        self.exp = exp
        self.log = log
        # zech[e] = log(1 + gamma^e), and 1 + x adds 1 to the constant
        # digit: rotate each run of p ids left by one, gather into a list,
        # rotate back
        starts = log[::p]
        log.append(log.pop(0))
        log[p - 1::p] = starts
        self.zech = list(map(log.__getitem__, exp))
        log.insert(0, log.pop())
        log[::p] = starts

    # -- element construction / formatting --

    def element(self, e: int) -> int:
        """gamma^e, exponent reduced mod q-1."""
        return e % self.n

    def one(self) -> int:
        return 0

    def gen(self) -> int:
        return 1 % self.n

    def from_int(self, x: int) -> int:
        """Embed the integer x via the prime subfield (x mod p)."""
        return self.log[x % self.p]

    def from_coeffs(self, coeffs) -> int:
        """sum c_i gamma^i over the integers c_i, by Horner's rule."""
        acc = ZERO
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, self.gen()), self.from_int(c))
        return acc

    def to_coeffs(self, a: int) -> list[int]:
        i = 0 if a == ZERO else self.exp[a]
        out = []
        for _ in range(self.m):
            out.append(i % self.p)
            i //= self.p
        return out

    def parse(self, s: str) -> int:
        if isinstance(s, str):
            s = s.strip()
            if s == "0":
                return ZERO
            if s == "1":
                return 0
            if s.startswith("g^"):
                try:
                    return int(s[2:]) % self.n
                except ValueError:
                    pass
        raise GrlError(f"bad element literal {s!r} (want '0' or 'g^e')")

    def fmt(self, a: int) -> str:
        return "0" if a == ZERO else f"g^{a}"

    def elements(self):
        yield ZERO
        yield from range(self.n)

    def nonzero_elements(self):
        return range(self.n)

    # -- arithmetic --

    def mul(self, a: int, b: int) -> int:
        if a < 0 or b < 0:
            return ZERO
        return (a + b) % self.n

    def add(self, a: int, b: int) -> int:
        if a < 0:
            return b
        if b < 0:
            return a
        z = self.zech[(b - a) % self.n]
        return ZERO if z < 0 else (a + z) % self.n

    def neg(self, a: int) -> int:
        if a < 0:
            return ZERO
        return (a + self.half) % self.n

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def inv(self, a: int) -> int:
        if a < 0:
            raise ZeroDivisionError("inverse of zero")
        return (-a) % self.n

    def pow(self, a: int, e: int) -> int:
        if a < 0:
            if e == 0:
                return 0  # empty product
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return ZERO
        return (a * e) % self.n

    def dot(self, xs, ys) -> int:
        """sum x*y over the pairs of xs and ys (zip stops at the shorter)."""
        n, zech = self.n, self.zech
        acc = ZERO
        for x, y in zip(xs, ys):
            if x >= 0 and y >= 0:
                t = (x + y) % n
                if acc < 0:
                    acc = t
                else:
                    z = zech[(t - acc) % n]
                    acc = ZERO if z < 0 else (acc + z) % n
        return acc

    def frob(self, a: int) -> int:
        """x -> x^q0 over GF(q0^2); the Hermitian conjugation."""
        if self._frob_mult is None:
            raise NotASquareField("field size is not a square")
        if a < 0:
            return ZERO
        return (a * self._frob_mult) % self.n

    @property
    def base_q(self) -> int:
        """q0 with field size q0^2; only for even extension degree."""
        if self._frob_mult is None:
            raise NotASquareField("field size is not a square")
        return self._frob_mult

    def field_str(self) -> str:
        return f"{self.p}^{self.m}" if self.m > 1 else str(self.p)

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.m}), modulus={self.modulus})"


_CTX_CACHE: dict[tuple[int, int], FieldCtx] = {}


def field_new(p: int, m: int = 1) -> FieldCtx:
    """Context for GF(p^m); cached, since construction is deterministic."""
    key = (p, m)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = FieldCtx(p, m)
    return _CTX_CACHE[key]


def field_from_str(s: str) -> FieldCtx:
    """Parse a field spec like '3^4' or '31'."""
    ps, sep, ms = s.partition("^")
    try:
        p, m = int(ps), int(ms) if sep else 1
    except ValueError:
        raise GrlError(f"bad field {s!r} (want 'p' or 'p^m')") from None
    return field_new(p, m)


def quadratic_character(ctx: FieldCtx, c: int) -> int:
    """+1 for nonzero squares, -1 for non-squares, 0 for zero."""
    if c == ZERO:
        return 0
    return 1 if c % 2 == 0 else -1
