import hashlib
import json
import os
import random
import subprocess
import sys
from array import array
from math import isqrt
from pathlib import Path

import pytest

from grlcodes import gf
from grlcodes.gf import (FIELD_SIZE_CAP, FILL_FLOOR, ZERO, EvenCharacteristic,
                         FieldCtx, FieldTooLarge, NotPrime, NotASquareField,
                         _break_even, _conway_poly, _conway_text, _Memo,
                         _packed_arith, divisor_count, field_new,
                         field_from_str, is_prime, quadratic_character, v_p)
from grlcodes.oracles import (_conway_search, _irreducible, _pmod, _pmul,
                              _poly_order_is, _ppowmod, _ptrim)

SMALL_FIELDS = [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                (3, 2), (5, 2), (7, 2), (3, 4), (11, 2)]


def brute_order(ctx, a):
    cur = a
    for e in range(1, ctx.q):
        if cur == ctx.one():
            return e
        cur = ctx.mul(cur, a)
    raise AssertionError


def test_field_new_gf5_smallest_generator():
    ctx = field_new(5)
    # exhaustive order check over {2,3,4}: 2 is the first with order 4
    orders = {c: brute_order(ctx, ctx.log[c]) for c in (2, 3, 4)}
    assert orders[2] == 4
    assert ctx.exp[1] == 2


def test_field_new_gf81_group_order():
    ctx = field_new(3, 4)
    assert ctx.q == 81
    assert brute_order(ctx, ctx.gen()) == 80


def test_field_new_rejects_even_characteristic():
    with pytest.raises(EvenCharacteristic):
        field_new(2, 1)


def test_field_new_rejects_composite_and_large():
    with pytest.raises(NotPrime):
        field_new(9, 1)
    with pytest.raises(FieldTooLarge):
        field_new(3, 14)


def test_basic_arithmetic_gf5():
    ctx = field_new(5)
    two, three, four = ctx.log[2], ctx.log[3], ctx.log[4]
    assert ctx.exp[ctx.mul(two, three)] == 1        # 2*3 = 6 = 1
    assert ctx.inv(four) == four                    # 4*4 = 16 = 1
    assert ctx.add(two, three) == ZERO              # 2+3 = 0
    assert ctx.exp[ctx.add(two, two)] == 4


def test_pow_group_order():
    ctx = field_new(3, 4)
    assert ctx.pow(ctx.gen(), 80) == ctx.one()
    assert ctx.pow(ctx.gen(), -1) == ctx.inv(ctx.gen())
    assert ctx.pow(ZERO, 0) == ctx.one()
    assert ctx.pow(ZERO, 3) == ZERO
    with pytest.raises(ZeroDivisionError):
        ctx.pow(ZERO, -1)


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_tables_mutually_inverse(p, m):
    ctx = field_new(p, m)
    for e in range(ctx.n):
        assert ctx.log[ctx.exp[e]] == e
    assert len(set(ctx.exp)) == ctx.n


def _packed(f, p):
    return sum(c * p ** i for i, c in enumerate(f))


# sha256 of the repr of (exp, log, zech) as lists for the report fields of
# the cold-cli benchmark below 10^6 elements; element ids are part of the
# interface, so any way of building or storing the tables must give these
# bytes
TABLE_SHA256 = {
    (13, 4): "d334892bc7e15af068fd98f17b8a7cf25ccca307df14c08525a69aa2fcb1f021",
    (3, 10): "7042641c95bbc7c6e85eeb9cdb326f3f4d0c66892132729fa619f6fc4d3a5370",
    (7, 6): "8e64527aca9d8cc1df6856a361bcc671b9d6500885393ad7c8e2698d8922a89a",
    (99991, 1):
        "bb06626c1e0c718d8ce7af04c041bc36c3f6e076d6af4c97ef375830948e0421",
}


@pytest.mark.parametrize("p,m", sorted(TABLE_SHA256))
def test_tables_are_pinned(p, m):
    ctx = FieldCtx(p, m)  # uncached, so its tables do not outlive the test
    text = repr(tuple(map(list, ctx.tables())))
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_SHA256[(p, m)]


def test_table_storage():
    # exp and log are 32-bit arrays, which keep a large field light; every
    # addition reads zech, and CPython specialises list subscripts, so it
    # stays a list.  Every id and log is below the cap, so none overflows.
    exp, log, zech = FieldCtx(7, 6).tables()
    assert exp.typecode == log.typecode == "i"
    assert type(zech) is list
    assert 2 ** (8 * array("i").itemsize - 1) > FIELD_SIZE_CAP


@pytest.mark.parametrize("p,m", SMALL_FIELDS + [(3, 6), (10007, 1)]
                         + sorted(TABLE_SHA256))
def test_tables_match_polynomial_powers(p, m):
    # oracle: gamma^e is x^e mod the modulus in coefficient-list arithmetic,
    # which does not use the times-gamma orbit that builds the tables; 331
    # is prime and divides none of the pinned fields' q - 1.  tables()
    # gives the walk's tables also for a field that starts on demand
    ctx = FieldCtx(p, m)
    exp, log, zech = ctx.tables()
    step = 1 if ctx.q < 1000 else 37 if ctx.q < 20000 else 331
    for e in range(0, ctx.n, step):
        f = _ppowmod([0, 1], e, ctx.modulus, p)
        assert exp[e] == _packed(f, p)
        assert log[exp[e]] == e
        one_plus = _ptrim([((f[0] if f else 0) + 1) % p] + f[1:])
        z = zech[e]
        if one_plus:
            assert z >= 0 and _ppowmod([0, 1], z, ctx.modulus, p) == one_plus
        else:
            assert z == ZERO


@pytest.mark.parametrize("p,modulus", [
    (3, [1, 0, 1]),      # x^2 + 1: irreducible, x has order 4
    (7, [2, 0, 0, 1]),   # x^3 + 2: irreducible, x has order 18
    (7, [6, 1]),         # x + 6: x = 1 has order 1
    (3, [0, 0, 1]),      # x^2: x is no unit, and the walk ends on id 1
])
def test_tables_refuse_a_gamma_of_lower_order(p, modulus):
    m = len(modulus) - 1
    assert not _poly_order_is(modulus, p, p ** m - 1)
    ctx = FieldCtx.__new__(FieldCtx)
    ctx.p, ctx.m, ctx.q, ctx.n = p, m, p ** m, p ** m - 1
    ctx.modulus = modulus
    with pytest.raises(AssertionError, match="order q-1"):
        ctx._build_tables()


def _on_demand(monkeypatch, p, m):
    """An uncached GF(p^m) that fills its tables on demand and never builds
    them whole."""
    monkeypatch.setattr(gf, "_break_even", lambda q, m: 10 ** 9)
    ctx = FieldCtx(p, m)
    monkeypatch.undo()
    assert type(ctx.zech) is _Memo
    return ctx


@pytest.mark.parametrize("p,m", [(31, 1), (13, 2), (7, 3), (3, 6), (101, 2)])
def test_fills_match_the_walk(p, m, monkeypatch):
    # every entry of every table, filled alone, equals the orbit walk's
    exp, log, zech = FieldCtx(p, m).tables()
    ctx = _on_demand(monkeypatch, p, m)
    assert [ctx._fill(0, e) for e in range(ctx.n)] == list(exp)
    assert [ctx._fill(1, i) for i in range(ctx.q)] == list(log)
    assert [ctx._fill(2, e) for e in range(ctx.n)] == zech
    # the memos read the same, and refuse what the tables do not hold
    assert all(ctx.zech[e] == zech[e] for e in range(0, ctx.n, 7))
    with pytest.raises(IndexError):
        ctx.log[ctx.q]
    with pytest.raises(IndexError):
        ctx.exp[-1]


def fill_sample_mismatches(p, m, size=2000):
    """The (table, key) pairs of a seeded sample of ``size`` exp, Zech and
    log entries where an uncached GF(p^m), forced to fill on demand,
    differs from the walk's whole tables."""
    exp, log, zech = FieldCtx(p, m).tables()
    with pytest.MonkeyPatch.context() as mp:
        ctx = _on_demand(mp, p, m)
    rng = random.Random(p ** m)
    keys = [(t, k) for k in rng.sample(range(ctx.n), size) for t in (0, 2)]
    keys += [(1, k) for k in rng.sample(range(ctx.q), size)]
    tables = (exp, log, zech)
    return [(t, k) for t, k in keys if ctx._fill(t, k) != tables[t][k]]


@pytest.mark.parametrize("p,m", [(13, 4), (3, 10), (7, 6), (99991, 1)])
def test_fill_samples_match_the_walk(p, m):
    # the cold-cli report fields below 10^6 elements; CI runs the same
    # check on GF(3^12) and GF(1048573)
    assert fill_sample_mismatches(p, m) == []


@pytest.mark.parametrize("p,m", [(1019, 2), (7, 6), (99991, 1)])
def test_fills_match_polynomial_powers_on_the_largest_field(p, m):
    # the cold-cli report fields that start on demand; 700 seeded
    # exponents check 2,100 fills against x^e in coefficient-list
    # arithmetic, as test_tables_match_polynomial_powers checks the walk
    ctx = FieldCtx(p, m)
    assert type(ctx.zech) is _Memo
    rng = random.Random(p)
    for e in rng.sample(range(ctx.n), 700):
        f = _ppowmod([0, 1], e, ctx.modulus, p)
        assert ctx._fill(0, e) == _packed(f, p)
        assert ctx._fill(1, _packed(f, p)) == e
        one_plus = _ptrim([(f[0] + 1) % p] + f[1:])
        z = ctx._fill(2, e)
        if one_plus:
            assert z >= 0 and _ppowmod([0, 1], z, ctx.modulus, p) == one_plus
        else:
            assert z == ZERO
    assert type(ctx.zech) is _Memo   # _fill alone never promotes


@pytest.mark.parametrize("p,m", [(3, 1), (1048573, 1), (3, 2), (1019, 2),
                                 (101, 3), (13, 4), (7, 6), (3, 10), (3, 12)])
def test_packed_arith_matches_the_list_helpers(p, m):
    # the coefficient-list helpers are the oracle: seeded products, powers
    # and powers of x agree, and all-(p - 1) operands fill the widest slots
    # (p = 1019, m = 2 and p = 1048573, m = 1 have the widest of all)
    f = _conway_poly(p, m)
    s, reduce, power, xpower = _packed_arith(p, m, f)

    def pack(g):
        return sum(c << i * s for i, c in enumerate(g))
    rng = random.Random(p * m)
    full = [p - 1] * m
    for i in range(150):
        a = full if i == 0 else [rng.randrange(p) for _ in range(m)]
        b = full if i < 2 else [rng.randrange(p) for _ in range(m)]
        e = (1 << (p ** m).bit_length()) - 1 if i == 0 else rng.randrange(
            1, p ** m)
        product = _pmod(_pmul(_ptrim(a[:]), _ptrim(b[:]), p), f, p)
        assert reduce(pack(a) * pack(b)) == pack(product)
        assert power(pack(a), e) == pack(_ppowmod(_ptrim(a[:]), e, f, p))
        assert xpower(e) == pack(_ppowmod([0, 1], e, f, p))


def test_promotion_at_the_break_even_count(monkeypatch):
    # a field that starts on demand builds its whole tables on the fill
    # that reaches the estimate; a memo held from before keeps reading
    # right values
    monkeypatch.setattr(gf, "FILL_FLOOR", 1)
    ctx = FieldCtx(101, 2)
    monkeypatch.undo()
    be = _break_even(ctx.q, ctx.m)
    assert 1 < be < 100
    exp, log, zech = FieldCtx(101, 2).tables()
    held = ctx.zech
    for e in range(be - 1):
        assert held[e] == zech[e]
    assert type(ctx.zech) is _Memo
    assert held[be - 1] == zech[be - 1]
    assert type(ctx.zech) is list and ctx.tables() == (exp, log, zech)
    assert all(held[e] == zech[e] for e in range(ctx.n))
    assert ctx.log[2] == log[2] and ctx.exp[5] == exp[5]


def test_which_fields_fill_on_demand():
    # of the cold-cli report fields, GF(99991), GF(7^6) and GF(1019^2)
    # fill on demand and GF(13^4) and GF(3^10) build whole when made; the
    # first fields to start on demand are the prime 3,457, the square
    # 193^2, the cube 37^3 and the fourth power 17^4
    def starts_on_demand(p, m):
        return _break_even(p ** m, m) >= FILL_FLOOR
    assert all(starts_on_demand(p, m) for p, m in
               [(99991, 1), (7, 6), (1019, 2), (3, 12), (101, 3)])
    assert not any(starts_on_demand(p, m) for p, m in [(13, 4), (3, 10)])
    primes = [p for p in range(3, 3458, 2) if is_prime(p)]
    for m, first in [(1, 3457), (2, 193), (3, 37), (4, 17)]:
        assert starts_on_demand(first, m)
        assert not any(starts_on_demand(p, m) for p in primes if p < first)
    assert not any(starts_on_demand(p, m) for p in primes for m in
                   range(1, 12) if p ** m < 3457)


def test_sweep_distance_and_appendix_fields_build_whole():
    # the fields the sweep corpus, the distance batch (q <= 169) and the
    # appendix rows work over are all built whole when made
    from grlcodes.appendix import load_rows
    from grlcodes.families import FAMILIES, corpus_cells, family_ctx
    ctxs = [family_ctx(f, q) for f in FAMILIES
            for q in {q for q, *_ in corpus_cells(f)}]
    ctxs += [field_new(p, m) for p, m in [(5, 2), (7, 2), (3, 4), (11, 2),
                                          (13, 2)]]
    ctxs += [row.spec.ctx for row in load_rows("all")]
    assert ctxs and all(type(ctx.zech) is list for ctx in ctxs)


@pytest.mark.parametrize("p,modulus", [
    (3, [1, 0, 1]), (7, [2, 0, 0, 1]), (7, [6, 1]), (3, [0, 0, 1])])
def test_on_demand_refuses_a_gamma_of_lower_order(p, modulus, monkeypatch):
    # no walk runs on demand, so the order is proved before any fill
    monkeypatch.setattr(gf, "_conway_poly", lambda p, m: modulus)
    monkeypatch.setattr(gf, "_break_even", lambda q, m: 10 ** 9)
    with pytest.raises(AssertionError, match="order q-1"):
        FieldCtx(p, len(modulus) - 1)


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1),
                                 (13, 1), (5, 2), (3, 3), (7, 2), (3, 4),
                                 (11, 2)])
def test_distributivity_exhaustive_up_to_121(p, m):
    ctx = field_new(p, m)
    if ctx.q > 121:
        pytest.skip("cap for the exhaustive sweep")
    els = list(ctx.elements())
    add, mul = ctx.add, ctx.mul
    for a in els:
        for b in els:
            ab = add(a, b)
            for c in els:
                assert mul(c, ab) == add(mul(c, a), mul(c, b))


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_gamma_order_is_exact(p, m):
    ctx = field_new(p, m)
    n = ctx.n
    for d in range(1, n):
        if n % d == 0:
            assert ctx.pow(ctx.gen(), d) != ctx.one()
    assert ctx.pow(ctx.gen(), n) == ctx.one()


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (7, 2), (3, 4), (11, 2), (13, 2)])
def test_frobenius_is_automorphism(p, m):
    ctx = field_new(p, m)
    rng = random.Random(20240 + p * m)
    els = list(ctx.elements())
    for _ in range(200):
        x, y = rng.choice(els), rng.choice(els)
        assert ctx.frob(ctx.add(x, y)) == ctx.add(ctx.frob(x), ctx.frob(y))
        assert ctx.frob(ctx.mul(x, y)) == ctx.mul(ctx.frob(x), ctx.frob(y))
        assert ctx.frob(ctx.frob(x)) == x


def test_frobenius_examples():
    ctx9 = field_new(3, 2)
    assert ctx9.frob(ZERO) == ZERO
    assert ctx9.frob(ctx9.gen()) == ctx9.element(3)
    ctx25 = field_new(5, 2)
    assert ctx25.frob(ctx25.element(7)) == ctx25.element(11)
    with pytest.raises(NotASquareField):
        field_new(3, 3).frob(0)


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_quadratic_character_matches_power(p, m):
    ctx = field_new(p, m)
    for c in ctx.elements():
        qc = quadratic_character(ctx, c)
        if c == ZERO:
            assert qc == 0
        else:
            val = ctx.pow(c, ctx.n // 2)
            assert val in (ctx.one(), ctx.neg(ctx.one()))
            assert qc == (1 if val == ctx.one() else -1)


def test_quadratic_character_gf5_examples():
    ctx = field_new(5)
    # brute-force square list in GF(5) is {1, 4}
    squares = {ctx.mul(x, x) for x in ctx.nonzero_elements()}
    assert {ctx.exp[s] for s in squares} == {1, 4}
    assert quadratic_character(ctx, ctx.log[4]) == 1
    assert quadratic_character(ctx, ctx.log[2]) == -1
    assert quadratic_character(ctx, ZERO) == 0


def test_integer_helpers():
    assert v_p(48, 2) == 4
    assert divisor_count(12) == 6
    assert divisor_count((25 - 1) // 2) == 6
    assert is_prime(2) and is_prime(31) and not is_prime(1)


def test_field_from_str_and_formatting():
    ctx = field_from_str("3^4")
    assert ctx.q == 81
    assert ctx.parse("0") == ZERO
    assert ctx.parse("g^85") == ctx.element(5)
    assert ctx.fmt(ctx.element(5)) == "g^5"
    assert ctx.fmt(ZERO) == "0"
    assert field_from_str("31").q == 31


def test_coeff_roundtrip():
    ctx = field_new(3, 4)
    for a in list(ctx.elements())[:50]:
        assert ctx.from_coeffs(ctx.to_coeffs(a)) == a


# the published table values for every field this package touches; the
# generator convention is part of the interface, so these are pinned.
# The larger ones cover every report field of the cold-cli benchmark.
CONWAY = {
    (3, 1): [1, 1],
    (3, 2): [2, 2, 1],
    (3, 3): [1, 2, 0, 1],
    (3, 4): [2, 0, 0, 2, 1],
    (3, 5): [1, 2, 0, 0, 0, 1],
    (3, 6): [2, 2, 1, 0, 2, 0, 1],
    (3, 8): [2, 2, 2, 0, 1, 2, 0, 0, 1],
    (3, 10): [2, 1, 0, 0, 2, 2, 2, 0, 0, 0, 1],
    (3, 12): [2, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1],
    (5, 1): [3, 1],
    (5, 2): [2, 4, 1],
    (5, 3): [3, 3, 0, 1],
    (5, 4): [2, 4, 4, 0, 1],
    (5, 6): [2, 0, 1, 4, 1, 0, 1],
    (7, 1): [4, 1],
    (7, 2): [3, 6, 1],
    (7, 4): [3, 4, 5, 0, 1],
    (7, 6): [3, 6, 4, 5, 1, 0, 1],
    (11, 1): [9, 1],
    (11, 2): [2, 7, 1],
    (13, 1): [11, 1],
    (13, 2): [2, 12, 1],
    (13, 4): [2, 12, 3, 0, 1],
    (31, 1): [28, 1],
    (101, 2): [2, 97, 1],
    (1019, 2): [2, 1015, 1],
    (99991, 1): [99985, 1],
}
# above this q no context is made here, and only the search and the
# modulus _conway_poly hands FieldCtx are checked: field_new keeps every
# context for the rest of the session, and the whole tables of GF(7^6),
# GF(3^12) and GF(1019^2) hold tens of MB.  GF(7^6) is built uncached and
# pinned above; CI pins the whole tables of the other two, which
# ctx.tables() builds whatever mode the field starts in.
TABLE_CHECK_MAX_Q = 10 ** 5


@pytest.mark.parametrize("p,m", sorted(CONWAY))
def test_modulus_is_the_conway_polynomial(p, m):
    # the search is the oracle the committed table is checked against
    assert _conway_search(p, m) == CONWAY[(p, m)]
    assert _conway_poly(p, m) == CONWAY[(p, m)]
    if p ** m > TABLE_CHECK_MAX_Q:
        return
    ctx = field_new(p, m)
    assert ctx.modulus == CONWAY[(p, m)]
    # gamma is the class of x and has full order: its q - 1 powers differ
    assert len(set(ctx.tables()[0])) == ctx.n


def test_conway_table_is_complete_and_matches_the_search():
    # one entry per odd prime p and m >= 2 with p^m <= FIELD_SIZE_CAP, each
    # equal to the search (~0.6 s for all 223); a failure prints the lines
    # to paste into src/grlcodes/conway.txt, as after raising the cap
    table = {}
    for line in _conway_text().splitlines():
        if not line.startswith("#"):
            p, m, *coeffs = map(int, line.split())
            table[p, m] = coeffs
    want = [(p, m) for p in range(3, isqrt(FIELD_SIZE_CAP) + 1, 2)
            if is_prime(p)
            for m in range(2, FIELD_SIZE_CAP.bit_length())
            if p ** m <= FIELD_SIZE_CAP]
    wrong = []
    for p, m in want:
        found = _conway_search(p, m)
        if table.get((p, m)) != found or _conway_poly(p, m) != found:
            wrong.append(" ".join(map(str, (p, m, *found))))
    extra = sorted(set(table) - set(want))
    assert not wrong and not extra, (
        "conway.txt lacks or misstates:\n" + "\n".join(wrong)
        + f"\nand holds fields FieldCtx refuses: {extra}")


BUILD_WITHOUT_THE_SEARCH = """
import json, sys
from grlcodes.gf import FieldCtx
ctx = FieldCtx(int(sys.argv[1]), int(sys.argv[2]))
assert type(ctx.tables()[2]) is list
print(json.dumps([ctx.modulus, "grlcodes.oracles" in sys.modules]))
"""


@pytest.mark.parametrize("p,m", [(3, 10), (7, 6), (31, 1), (99991, 1)])
def test_fields_are_built_without_the_search(p, m):
    # GF(3^10) builds whole when made, and GF(7^6) and GF(99991) fill on
    # demand; each field, GF(31) too, finds its modulus and builds its
    # whole tables in a fresh interpreter that never loads the search,
    # which is only the tests' oracle
    src = str(Path(gf.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", BUILD_WITHOUT_THE_SEARCH,
                           str(p), str(m)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modulus, loaded = json.loads(proc.stdout)
    assert modulus == CONWAY[(p, m)]
    assert not loaded


def test_prime_field_modulus_is_the_least_primitive_root():
    # gf finds C_{p,1} = x - r from the least primitive root r; the search
    # is its oracle on every odd prime below 5,000 (3,457, the first prime
    # field to fill on demand, among them) and on 99,991 and 1,048,573,
    # the largest prime fields in use
    primes = [p for p in range(3, 5000, 2) if is_prime(p)] + [99991, 1048573]
    assert len(primes) == 670
    assert [p for p in primes if _conway_poly(p, 1) != _conway_search(p, 1)] \
        == []


@pytest.mark.parametrize("p,m", [(5, 2), (3, 4), (13, 2), (3, 6)])
def test_modulus_is_irreducible(p, m):
    ctx = field_new(p, m)
    assert _irreducible(list(ctx.modulus), p)
    # no root in GF(p)
    for r in range(p):
        acc = 0
        for c in reversed(ctx.modulus):
            acc = (acc * r + c) % p
        assert acc != 0
