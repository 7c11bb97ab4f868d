import random
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grlcodes import nongrs
from grlcodes.classify import classify
from grlcodes.gf import ZERO, TooLarge, field_new
from grlcodes.grl import GrlSpec, build_generator
from grlcodes.linalg import Matrix, rank
from grlcodes.nongrs import certify, grs_generator, nongrs_certificate
from grlcodes.oracles import (elementary_symmetric, exhaustive_grs_check,
                              schur_square_dim)


def unit_spec(ctx, alpha, a, k):
    return GrlSpec(ctx=ctx, alpha=alpha, v=[ctx.one()] * len(alpha), a=a, k=k)


def test_elementary_symmetric_small():
    ctx = field_new(5)
    one = ctx.one()
    a = ctx.log[1]
    assert elementary_symmetric(ctx, [a]) == [one, a]
    # alpha = (1, 2) over F_5: e = (1, 3, 2)
    sig = elementary_symmetric(ctx, [ctx.log[1], ctx.log[2]])
    assert [ctx.to_coeffs(s)[0] for s in sig] == [1, 3, 2]


def test_elementary_symmetric_root_identity():
    rng = random.Random(5)
    for p, m in ((7, 1), (3, 2), (13, 1)):
        ctx = field_new(p, m)
        for _ in range(20):
            k = rng.randint(2, 5)
            alpha = rng.sample(list(ctx.elements()), k)
            sig = elementary_symmetric(ctx, alpha)
            # sum (-1)^i e_i a_1^{k-i} = 0
            acc = ZERO
            for i in range(k + 1):
                t = ctx.mul(sig[i], ctx.pow(alpha[0], k - i))
                acc = ctx.add(acc, ctx.neg(t) if i % 2 else t)
            assert acc == ZERO


def rs_spec_on_points(ctx, pts, k):
    """Plain evaluation code of dimension k on pts, as a k=l GRL with a
    Vandermonde tail on the last k points."""
    n = len(pts) - k
    a = Matrix(ctx, [[ctx.pow(b, r) for b in pts[n:]] for r in range(k)])
    return unit_spec(ctx, list(pts[:n]), a, k)


def test_cauchy_round_trip_recovers_points(witness):
    # an RS code, 0 among its points, is GRS on points that rebuild it
    ctx = field_new(13)
    pts = [ctx.element(e) for e in (0, 1, 2, 3, 4, 5)] + [ZERO]
    k = 3
    g = Matrix(ctx, [[ctx.pow(x, r) for x in pts] for r in range(k)])
    cert = certify(g)
    assert cert.verdict == "grs"
    witness(g, cert)


def test_proportional_rows_are_not_grs(witness):
    # every entry of B is nonzero and 1/B has rank 2, but rows 0 and 1 of
    # B are proportional (4*2 - 3*1 = 0): the code is not even MDS
    ctx = field_new(5)
    g = Matrix(ctx, [[ctx.from_int(x) for x in row]
                     for row in ([1, 0, 0, 4, 3], [0, 1, 0, 1, 2],
                                 [0, 0, 1, 1, 4])])
    r = Matrix(ctx, [[ctx.inv(ctx.from_int(x)) for x in row]
                     for row in ([4, 3], [1, 2], [1, 4])])
    assert rank(r) == 2
    cert = certify(g)
    assert cert.verdict == "non_grs"
    assert cert.evidence == {"reason": "proportional rows", "rows": [0, 1]}
    witness(g, cert)
    assert exhaustive_grs_check(g)[0] == "non_grs"


def test_schur_square_of_rs_code():
    ctx = field_new(13)
    pts = [ctx.element(e) for e in range(8)]
    for k in (2, 3, 4):
        g = Matrix(ctx, [[ctx.pow(x, r) for x in pts] for r in range(k)])
        assert schur_square_dim(g) == 2 * k - 1


def test_vandermonde_tail_grl_is_grs(witness):
    # k = l with Vandermonde tail: Schur dim 2l-1 and exhaustive verdict grs
    ctx = field_new(7)
    pts = [ctx.parse(s) for s in ("0", "1", "g^1", "g^2", "g^3", "g^4")]
    spec = rs_spec_on_points(ctx, pts, 2)
    g = build_generator(spec)
    assert schur_square_dim(g) == 3
    verdict, ev = exhaustive_grs_check(g)
    assert verdict == "grs"
    cert = nongrs_certificate(spec)
    assert cert.verdict == "grs"
    witness(g, cert)


def test_grl_code_with_n_above_k_above_l_can_be_grs(witness):
    # n > k > l does not make a GRL code non-GRS: over GF(7), the points
    # (0, 1, g, g^2) with k = 3 and tail A = [[1, 1], [0, g^3]] give a
    # [6, 3, 4] MDS code that is GRS on other points and multipliers
    ctx = field_new(7)
    alpha = [ctx.parse(s) for s in ("0", "1", "g^1", "g^2")]
    a = Matrix.from_strs(ctx, [["1", "1"], ["0", "g^3"]])
    spec = unit_spec(ctx, alpha, a, 3)
    assert spec.n > spec.k > spec.l
    cert = nongrs_certificate(spec)
    assert cert.verdict == "grs"
    assert cert.evidence == {
        "points": ["g^5", "g^2", "g^4", "g^3", "0", "g^1"],
        "v": ["g^0", "g^2", "g^3", "g^3", "g^1", "g^5"]}
    g = build_generator(spec)
    witness(g, cert)
    assert exhaustive_grs_check(g)[0] == "grs"
    rep = classify(spec)
    assert (rep.n, rep.k, rep.d, rep.label) == (6, 3, 4, "MDS")


def test_a_grs_verdict_eliminates_g_once(monkeypatch):
    # the witness check compares the rebuilt generator's RREF with the
    # one the standard form of G already made
    ctx = field_new(7)
    alpha = [ctx.parse(s) for s in ("0", "1", "g^1", "g^2")]
    a = Matrix.from_strs(ctx, [["1", "1"], ["0", "g^3"]])
    g = build_generator(unit_spec(ctx, alpha, a, 3))
    on_g = Counter()

    def counted(m, _rref=nongrs.rref):
        on_g[m is g] += 1
        return _rref(m)

    monkeypatch.setattr(nongrs, "rref", counted)
    assert certify(g).verdict == "grs"
    assert on_g == {True: 1, False: 3}


def test_lower_triangular_tail_k_equals_l_exceeds_schur_bound():
    # k = l with invertible lower-triangular tail: Schur square overflows
    ctx = field_new(13)
    k = 3
    alpha = [ctx.element(e) for e in range(6)]
    a = Matrix.from_strs(ctx, [["g^1", "0", "0"],
                               ["g^5", "g^2", "0"],
                               ["g^7", "g^9", "g^3"]])
    spec = unit_spec(ctx, alpha, a, k)
    dim = schur_square_dim(build_generator(replace(spec, v=[0] * spec.n)))
    assert dim > 2 * k - 1
    cert = nongrs_certificate(spec)
    assert cert.verdict == "non_grs"


def test_schur_dim_monomial_invariance():
    rng = random.Random(27)
    ctx = field_new(5, 2)
    els = list(ctx.nonzero_elements())
    for _ in range(10):
        k = rng.randint(2, 4)
        n = rng.randint(k, k + 3)
        l = rng.randint(2, k)
        alpha = rng.sample(list(ctx.elements()), n)
        while True:
            a = Matrix(ctx, [[rng.choice([ZERO] + els) for _ in range(l)]
                             for _ in range(l)])
            if rank(a) == l:
                break
        v = [rng.choice(els) for _ in range(n)]
        s1 = unit_spec(ctx, alpha, a, k)
        s2 = GrlSpec(ctx=ctx, alpha=alpha, v=v, a=a, k=k)
        assert schur_square_dim(build_generator(s1)) == \
            schur_square_dim(build_generator(s2))


def test_nongrs_example_a6_case2():
    # [10,4,7] code: 2k-1 = 7 < 10, Schur route applies
    ctx = field_new(3, 4)
    alpha = [ctx.element(20 * i) for i in range(1, 5)] + \
            [ctx.element(20 * i + 32) for i in range(1, 5)]
    a = Matrix.from_strs(ctx, [["g^1", "g^2"], ["g^3", "g^5"]])
    spec = unit_spec(ctx, alpha, a, 4)
    dim = schur_square_dim(build_generator(spec))
    assert dim > 2 * 4 - 1
    cert = nongrs_certificate(spec)
    assert cert.verdict == "non_grs"
    assert cert.method == "GeneralizedCauchy"


def test_exhaustive_tiny_guard():
    ctx = field_new(11)
    g = Matrix.identity(ctx, 2)
    with pytest.raises(TooLarge):
        exhaustive_grs_check(g)


@st.composite
def small_codes(draw):
    """Full-rank k x N generators over GF(q), q <= 7: GRS codes, GRS codes
    with one entry changed, GRL codes, [I | B] with B free of zeros under
    a column permutation, and random codes, 1 <= k <= N.  N runs up to
    q + 1 at q = 3 and 5, and to 5 at q = 7, where the oracle already
    builds C(7, 5)*6^4 GRS row spaces (about half a second)."""
    ctx = field_new(draw(st.sampled_from([3, 5, 7])))
    nn = draw(st.sampled_from(range(5 if ctx.q == 7 else ctx.q + 1, 0, -1)))
    # the middle dimensions first: they exercise 1/B of rank 2
    k = draw(st.sampled_from(sorted(range(1, nn + 1),
                                    key=lambda k: -min(k, nn - k))))
    els = list(ctx.elements())
    nonzero = st.sampled_from(list(ctx.nonzero_elements()))
    kind = draw(st.sampled_from(["grs", "grs+1", "grl", "[I|B]", "random"]))
    ls = [l for l in range(2, k + 1) if k <= nn - l <= ctx.q]
    if kind.startswith("grs") and nn <= ctx.q:
        pts = draw(st.permutations(els))[:nn]
        v = draw(st.lists(nonzero, min_size=nn, max_size=nn))
        g = grs_generator(ctx, pts, v, k)
        if kind == "grs+1":
            i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, nn - 1))
            g.data[i][j] = draw(st.sampled_from(els))
    elif kind == "grl" and ls:
        l = draw(st.sampled_from(ls))
        row = st.lists(st.sampled_from(els), min_size=l, max_size=l)
        a = Matrix(ctx, draw(st.lists(row, min_size=l, max_size=l)))
        assume(rank(a) == l)
        alpha = draw(st.permutations(els))[:nn - l]
        v = draw(st.lists(nonzero, min_size=nn - l, max_size=nn - l))
        g = build_generator(GrlSpec(ctx=ctx, alpha=alpha, v=v, a=a, k=k))
    elif kind == "[I|B]":
        b = draw(st.lists(st.lists(nonzero, min_size=nn - k, max_size=nn - k),
                          min_size=k, max_size=k))
        rows = [e + b_row for e, b_row in zip(Matrix.identity(ctx, k).data, b)]
        perm = draw(st.permutations(range(nn)))
        g = Matrix(ctx, [[row[j] for j in perm] for row in rows])
    else:
        g = Matrix(ctx, draw(st.lists(st.lists(st.sampled_from(els),
                                               min_size=nn, max_size=nn),
                                      min_size=k, max_size=k)))
    assume(rank(g) == k)
    return g


@settings(max_examples=150, deadline=None)
@given(small_codes())
def test_engine_agrees_with_exhaustive_search(witness, g):
    cert = certify(g)
    assert cert.verdict == exhaustive_grs_check(g)[0]
    witness(g, cert)
    if schur_square_dim(g) > 2 * g.rows - 1:
        assert cert.verdict == "non_grs"


def test_engine_agrees_with_exhaustive_search_on_middle_dimensions(witness):
    """2 <= k <= N - 2, where 1/B may have rank 2 or proportional lines:
    [I | B] with B free of zeros under a column permutation, and GRS codes
    with one entry changed."""
    rng = random.Random(11)
    seen = Counter()
    for q, nn, k in ((5, 4, 2), (5, 5, 2), (5, 5, 3), (7, 4, 2), (7, 5, 2),
                     (7, 5, 3)):
        ctx = field_new(q)
        els = list(ctx.elements())
        for trial in range(20):
            if trial % 2:
                rows = [e + [rng.randrange(ctx.n) for _ in range(nn - k)]
                        for e in Matrix.identity(ctx, k).data]
                perm = rng.sample(range(nn), nn)
                g = Matrix(ctx, [[row[j] for j in perm] for row in rows])
            else:
                g = grs_generator(ctx, rng.sample(els, nn),
                                  [rng.randrange(ctx.n) for _ in range(nn)], k)
                g.data[rng.randrange(k)][rng.randrange(nn)] = rng.choice(els)
                if rank(g) < k:
                    continue
            cert = certify(g)
            assert cert.verdict == exhaustive_grs_check(g)[0]
            witness(g, cert)
            seen[cert.evidence.get("reason", "grs")] += 1
    assert set(seen) == {"grs", "zero entry", "proportional rows",
                         "proportional columns"}, seen


def test_mds_code_off_a_conic_is_not_grs(witness):
    # a [6, 3] MDS code over GF(7): its columns are a 6-arc of PG(2, 7) on
    # no conic, so only the rank of 1/B tells it from a GRS code
    ctx = field_new(7)
    b = [[6, 5, 1], [1, 4, 3], [5, 2, 3]]
    g = Matrix(ctx, [e + [ctx.from_int(x) for x in row]
                     for e, row in zip(Matrix.identity(ctx, 3).data, b)])
    assert all(rank(Matrix(ctx, [[row[j] for j in cols] for row in g.data]))
               == 3 for cols in combinations(range(6), 3))
    cert = certify(g)
    assert cert.evidence == {"reason": "3x3 minor", "rows": [0, 1, 2],
                             "columns": [3, 4, 5]}
    witness(g, cert)
    assert exhaustive_grs_check(g)[0] == "non_grs"
