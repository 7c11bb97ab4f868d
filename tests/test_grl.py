import random
from dataclasses import replace

import pytest

from grlcodes.families import FamilyParams, family_ctx, make_alpha
from grlcodes.gf import ZERO, NotADivisor, field_new
from grlcodes.grl import (DistinctnessViolation, GrlSpec, InvariantViolation,
                          build_M,
                          build_generator, power_sum)
from grlcodes.linalg import Matrix, mat_mul, rank


def power_sum_direct(ctx, beta, s, t):
    """Oracle: literal summation over the s-th roots of unity."""
    step = ctx.n // s
    acc = ZERO
    for i in range(1, s + 1):
        acc = ctx.add(acc, ctx.pow(ctx.mul(beta, ctx.element(step * i)), t))
    return acc


def unit_v(ctx, n):
    return [ctx.one()] * n


def example_a1_spec():
    ctx = field_new(3, 4)
    alpha = [ctx.element(16 * i + 2) for i in range(1, 6)]
    a = Matrix.from_strs(ctx, [["g^1", "g^2"], ["g^3", "g^5"]])
    return GrlSpec(ctx=ctx, alpha=alpha, v=unit_v(ctx, 5), a=a, k=5)


def test_build_generator_example_a1_matrix():
    spec = example_a1_spec()
    g = build_generator(spec)
    ctx = spec.ctx
    assert (g.rows, g.cols) == (5, 7)
    exps = [18, 34, 50, 66, 82]
    for r in range(5):
        for j in range(5):
            assert g.data[r][j] == ctx.element(exps[j] * r)
    for r in range(3):
        assert g.data[r][5] == ZERO and g.data[r][6] == ZERO
    assert g.data[3][5:] == [ctx.element(1), ctx.element(2)]
    assert g.data[4][5:] == [ctx.element(3), ctx.element(5)]


def test_build_generator_k_equals_l_vandermonde_tail():
    # tail A Vandermonde on beta => plain evaluation code on (alpha, beta)
    ctx = field_new(7)
    alpha = [ctx.parse(s) for s in ("0", "g^0", "g^2", "g^4")]
    beta = [ctx.element(1), ctx.element(5)]
    a = Matrix(ctx, [[ctx.pow(b, r) for b in beta] for r in range(2)])
    spec = GrlSpec(ctx=ctx, alpha=alpha, v=unit_v(ctx, 4), a=a, k=2)
    g = build_generator(spec)
    pts = alpha + beta
    for r in range(2):
        assert g.data[r] == [ctx.pow(x, r) for x in pts]


def test_build_generator_minimal_identity_tail():
    ctx = field_new(11)
    alpha = [ctx.element(e) for e in range(4)]
    spec = GrlSpec(ctx=ctx, alpha=alpha, v=unit_v(ctx, 4),
                   a=Matrix.identity(ctx, 2), k=3)
    g = build_generator(spec)
    assert g.data[0][4:] == [ZERO, ZERO]
    assert g.data[1][4:] == [0, ZERO]
    assert g.data[2][4:] == [ZERO, 0]


def test_generator_full_rank_and_monomial_equivalence():
    rng = random.Random(11)
    for q, m in ((13, 1), (5, 2), (3, 4)):
        ctx = field_new(q, m)
        els = list(ctx.nonzero_elements())
        for _ in range(10):
            k = rng.randint(2, 5)
            n = rng.randint(k, min(ctx.q, k + 4))
            l = rng.randint(2, k)
            alpha = rng.sample(list(ctx.elements()), n)
            v = [rng.choice(els) for _ in range(n)]
            while True:
                a = Matrix(ctx, [[rng.choice([ZERO] + els) for _ in range(l)]
                                 for _ in range(l)])
                if rank(a) == l:
                    break
            spec = GrlSpec(ctx=ctx, alpha=alpha, v=v, a=a, k=k)
            g = build_generator(spec)
            assert rank(g) == k
            g1 = build_generator(replace(spec, v=[0] * spec.n))
            # diag(v, 1_l) carries the unit-v generator to g
            diag = Matrix.zeros(ctx, spec.length, spec.length)
            for j in range(spec.length):
                diag.data[j][j] = v[j] if j < n else ctx.one()
            assert mat_mul(g1, diag) == g


def test_spec_validation_errors():
    ctx = field_new(7)
    alpha = [ctx.element(e) for e in range(4)]
    bad_a = Matrix(ctx, [[0, 0], [0, 0]])  # singular: both rows are 1,1
    with pytest.raises(InvariantViolation, match="GL_l"):
        GrlSpec(ctx=ctx, alpha=alpha, v=unit_v(ctx, 4), a=bad_a, k=3)
    with pytest.raises(InvariantViolation, match="distinct"):
        GrlSpec(ctx=ctx, alpha=[0, 0, 1, 2], v=unit_v(ctx, 4),
                a=Matrix.identity(ctx, 2), k=3)
    with pytest.raises(InvariantViolation, match="k <= n"):
        GrlSpec(ctx=ctx, alpha=alpha, v=unit_v(ctx, 4),
                a=Matrix.identity(ctx, 2), k=5)


def test_power_sum_small_cases():
    c5 = field_new(5)
    assert power_sum(c5, c5.one(), 4, 4) == c5.log[4]     # 1^4 * 4
    assert power_sum(c5, c5.one(), 4, 2) == ZERO
    assert power_sum_direct(c5, c5.one(), 4, 2) == ZERO
    c9 = field_new(3, 2)
    got = power_sum(c9, c9.gen(), 8, 8)
    assert got == c9.mul(c9.element(8), c9.from_int(8))
    assert got == power_sum_direct(c9, c9.gen(), 8, 8)
    with pytest.raises(NotADivisor):
        power_sum(c5, c5.one(), 3, 1)


@pytest.mark.parametrize("p,m", [(5, 1), (3, 2), (13, 1), (5, 2)])
def test_power_sum_matches_direct_summation(p, m):
    # every divisor s of the group order and every |t| <= 2q
    ctx = field_new(p, m)
    rng = random.Random(500 + ctx.q)
    divisors = [s for s in range(1, ctx.n + 1) if ctx.n % s == 0]
    for s in divisors:
        for t in range(-2 * ctx.q, 2 * ctx.q + 1):
            beta = rng.randrange(ctx.n)
            assert power_sum(ctx, beta, s, t) == power_sum_direct(ctx, beta, s, t)


def build_M_direct(ctx2, k, t):
    """Oracle: double sum over i and the (r, c) grid."""
    q = ctx2.base_q
    step = ctx2.n // k
    rows = []
    for r in range(k):
        row = []
        for c in range(k):
            acc = ZERO
            for i in range(1, k + 1):
                base = ctx2.mul(ctx2.element(t), ctx2.element(step * i))
                acc = ctx2.add(acc, ctx2.pow(base, r + c * q))
            row.append(acc)
        rows.append(row)
    return Matrix(ctx2, rows)


def test_build_M_antidiagonal_when_k_divides_q_minus_1():
    ctx = field_new(3, 4)  # q = 9, k = 4 | 8
    m = build_M(ctx, 4, 1)
    assert m == build_M_direct(ctx, 4, 1)
    q = ctx.base_q
    for r in range(4):
        support = [c for c in range(4) if m.data[r][c] != ZERO]
        expected_c = (-r) % 4 if r else 0
        assert support == [expected_c]
        val = m.data[r][support[0]]
        assert val == ctx.mul(ctx.element((r + (4 - r) % 4 * q) * 1),
                              ctx.from_int(4)) or r == 0
    assert m.data[0][0] == ctx.from_int(4)


def test_build_M_diagonal_when_k_divides_q_plus_1():
    ctx = field_new(3, 2)  # q = 3, k = 4 | q+1
    for t in (1, 3, 5):
        m = build_M(ctx, 4, t)
        assert m == build_M_direct(ctx, 4, t)
        for r in range(4):
            for c in range(4):
                if r == c:
                    expect = ctx.mul(ctx.element(t * r * (1 + 3)),
                                     ctx.from_int(4))
                    assert m.data[r][c] == expect
                else:
                    assert m.data[r][c] == ZERO


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2)])
def test_build_M_single_nonzero_per_row_and_column(p, m):
    ctx = field_new(p, m)
    for k in range(2, ctx.n + 1):
        if ctx.n % k:
            continue
        for t in range(1, ctx.n + 1):
            mat = build_M(ctx, k, t)
            assert mat.data[0][0] == ctx.from_int(k)
            for r in range(k):
                assert sum(1 for c in range(k) if mat.data[r][c] != ZERO) == 1
            for c in range(k):
                assert sum(1 for r in range(k) if mat.data[r][c] != ZERO) == 1
            if k == 4 and t == 1:
                assert mat == build_M_direct(ctx, k, t)


def two_block_alpha(family, q, k, s, t):
    ctx = family_ctx(family, q)
    a = Matrix.from_strs(ctx, [["g^1", "g^2"], ["g^3", "g^5"]])
    return make_alpha(FamilyParams(family=family, q=q, k=k, l=2, a=a,
                                   s=s, t=t))


def test_distinctness_checks():
    assert len(set(two_block_alpha("E3", 31, 5, 1, 9))) == 10  # 6 ∤ 8
    for s, t in ((7, 1), (3, 3)):                              # 6 | 6, s = t
        with pytest.raises(DistinctnessViolation, match="divisible by 6"):
            two_block_alpha("E3", 31, 5, s, t)
    # GF(11^2): the blocks coincide iff 24 | s - t; literal comparison agrees
    for s, t in ((25, 1), (2, 1), (26, 2), (9, 1)):
        try:
            alpha = two_block_alpha("H3", 11, 5, s, t)
            distinct = len(set(alpha)) == len(alpha)
        except DistinctnessViolation:
            distinct = False
        assert distinct == ((s - t) % 24 != 0), (s, t)
    with pytest.raises(NotADivisor):
        two_block_alpha("E3", 31, 7, 1, 2)


def test_json_roundtrip():
    spec = example_a1_spec()
    d = {"field": "3^4", "k": 5, "l": 2,
         "alpha": ["g^18", "g^34", "g^50", "g^66", "g^82"], "v": ["1"] * 5,
         "A": [["g^1", "g^2"], ["g^3", "g^5"]]}
    spec2 = GrlSpec.from_json_dict(d)
    assert spec2.alpha == spec.alpha and spec2.a == spec.a
    assert build_generator(spec2) == build_generator(spec)
