import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spec_hull
from grlcodes.classify import classify
from grlcodes.eaqecc import derive
from grlcodes.families import (FamilyParams, build_spec, corpus_cells,
                               sample_invertible)
from grlcodes.gf import ZERO, GrlError, field_new
from grlcodes.grl import GrlSpec, build_generator, build_M
from grlcodes.hull import (EUCLIDEAN, HERMITIAN, dual_generator, gram,
                           hull_dim_bruteforce, hull_report, point_gram,
                           spec_gram)
from grlcodes.linalg import (Matrix, RankDeficient, conjugate, mat_mul, rank,
                             rref, transpose)


def unit_spec(ctx, alpha, a_rows, k):
    a = Matrix.from_strs(ctx, a_rows)
    return GrlSpec(ctx=ctx, alpha=alpha, v=[ctx.one()] * len(alpha), a=a, k=k)


def example_a1_spec():
    ctx = field_new(3, 4)
    return unit_spec(ctx, [ctx.element(16 * i + 2) for i in range(1, 6)],
                     [["g^1", "g^2"], ["g^3", "g^5"]], 5)


def gram_hull(g, inner):
    """Hull of a full-rank generator from its Gram rank alone."""
    return g.rows - rank(gram(g, inner))


def test_gram_of_identity():
    ctx = field_new(7)
    g = Matrix.identity(ctx, 3)
    assert gram(g, EUCLIDEAN) == g


def test_gram_structure_single_block_narrow_tail():
    # alpha = gamma^delta * (k-th roots): Gram has k at (0,0), the constant
    # gamma^{delta*k}*k on the antidiagonal, and A A^T in the tail corner.
    ctx = field_new(5, 2)
    q, k, l, delta = 25, 8, 2, 1
    step = (q - 1) // k
    spec = unit_spec(ctx, [ctx.element(step * i + delta) for i in range(1, 9)],
                     [["g^0", "g^1"], ["g^2", "g^4"]], k)
    gm = gram(build_generator(spec), EUCLIDEAN)
    theta = ctx.mul(ctx.element(delta * k), ctx.from_int(k))
    aat = mat_mul(spec.a, transpose(spec.a))
    for r in range(k):
        for c in range(k):
            expect = ZERO
            if r == 0 and c == 0:
                expect = ctx.from_int(k)
            elif r + c == k:
                expect = theta
            if r >= k - l and c >= k - l:
                expect = ctx.add(expect, aat.data[r - (k - l)][c - (k - l)])
            assert gm.data[r][c] == expect


def test_gram_symmetry_and_hermitian_self_conjugacy():
    rng = random.Random(77)
    ctx = field_new(3, 2)
    els = list(ctx.elements())
    for _ in range(20):
        m = Matrix(ctx, [[rng.choice(els) for _ in range(5)] for _ in range(3)])
        ge = gram(m, EUCLIDEAN)
        assert ge == transpose(ge)
        gh = gram(m, HERMITIAN)
        assert gh == transpose(conjugate(gh))


def test_hermitian_gram_diagonal_plus_tail_when_k_divides_q_plus_1():
    # k | q+1: M part diagonal, tail block A conj(A)^T
    ctx = field_new(3, 2)  # base q = 3
    k, l, delta = 4, 2, 1
    step = ctx.n // k
    spec = unit_spec(ctx, [ctx.element(step * i + delta) for i in range(1, 5)],
                     [["g^1", "g^2"], ["g^3", "g^5"]], k)
    gm = gram(build_generator(spec), HERMITIAN)
    tail = mat_mul(spec.a, transpose(conjugate(spec.a)))
    for r in range(k):
        for c in range(k):
            expect = ZERO
            if r == c:
                expect = ctx.mul(ctx.element(delta * r * (1 + 3)), ctx.from_int(k))
            if r >= k - l and c >= k - l:
                expect = ctx.add(expect, tail.data[r - (k - l)][c - (k - l)])
            assert gm.data[r][c] == expect


def test_hull_dim_example_a1_is_lcd():
    rep = spec_hull(example_a1_spec(), EUCLIDEAN)
    assert rep.hull_dim == 0 and rep.is_lcd and rep.gram_rank == 5


def test_hull_dim_one_when_corner_cancels():
    # l = k/2 and gamma^{delta k} k + sum a_1i^2 = 0 force a 1-dim hull
    ctx = field_new(5, 2)
    q, k, l, delta = 25, 4, 2, 1
    step = (q - 1) // k
    target = ctx.neg(ctx.mul(ctx.element(delta * k), ctx.from_int(k)))
    found = None
    for e1 in ctx.elements():
        rest = ctx.sub(target, ctx.mul(e1, e1))
        if rest == ZERO:
            continue
        if rest % 2 == 0:  # nonzero square
            a12 = rest // 2
            a = Matrix(ctx, [[e1, a12], [ctx.one(), ZERO]])
            if rank(a) == 2:
                found = a
                break
    assert found is not None
    spec = GrlSpec(ctx=ctx,
                   alpha=[ctx.element(step * i + delta) for i in range(1, 5)],
                   v=[ctx.one()] * 4, a=found, k=4)
    rep = spec_hull(spec, EUCLIDEAN)
    assert rep.hull_dim == 1 and not rep.is_lcd
    assert hull_dim_bruteforce(build_generator(spec), EUCLIDEAN) == 1


def test_hermitian_hull_attains_tail_width():
    # (q, k, l, delta) = (9, 5, 3, 1) with A = diag(g^2, g^3, g^4): hull 3
    ctx = field_new(3, 4)
    k, delta = 5, 1
    step = ctx.n // k
    a = Matrix.from_strs(ctx, [["g^2", "0", "0"],
                               ["0", "g^3", "0"],
                               ["0", "0", "g^4"]])
    spec = GrlSpec(ctx=ctx,
                   alpha=[ctx.element(step * i + delta) for i in range(1, 6)],
                   v=[ctx.one()] * 5, a=a, k=k)
    rep = spec_hull(spec, HERMITIAN)
    assert rep.hull_dim == 3
    assert hull_dim_bruteforce(build_generator(spec), HERMITIAN) == 3


# every entry point that takes an inner product's name, called with a
# name that is neither
ENTRY_POINTS = {
    "gram": lambda spec, name: gram(build_generator(spec), name),
    "dual_generator": lambda spec, name: dual_generator(build_generator(spec),
                                                        name),
    "point_gram": point_gram,
    "spec_gram": spec_gram,
    "eaqecc.derive": lambda spec, name: derive(classify(spec), name),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(),
                         ids=ENTRY_POINTS.keys())
def test_unknown_inner_product_is_refused(call):
    with pytest.raises(GrlError, match="unknown inner product 'symplectic'"):
        call(example_a1_spec(), "symplectic")


def test_dual_generator_contracts():
    ctx = field_new(5, 2)
    g = Matrix(ctx, [[0, ZERO, 3, 5], [ZERO, 0, 7, 2]])
    d = dual_generator(g, EUCLIDEAN)
    assert d.rows == 2
    prod = mat_mul(g, transpose(d))
    assert all(x == ZERO for row in prod.data for x in row)
    dh = dual_generator(g, HERMITIAN)
    prod_h = mat_mul(g, transpose(conjugate(dh)))
    assert all(x == ZERO for row in prod_h.data for x in row)
    # identity-block generator has the complementary identity dual
    gi = Matrix(ctx, [[0, ZERO, ZERO, ZERO], [ZERO, 0, ZERO, ZERO]])
    di = dual_generator(gi, EUCLIDEAN)
    assert di.data == [[ZERO, ZERO, 0, ZERO], [ZERO, ZERO, ZERO, 0]]
    with pytest.raises(RankDeficient):
        dual_generator(Matrix(ctx, [[0, 0], [0, 0]]), EUCLIDEAN)


def test_hull_of_dual_matches_hull_of_code():
    rng = random.Random(123)
    for p, m in ((5, 1), (3, 2), (13, 1)):
        ctx = field_new(p, m)
        els = list(ctx.elements())
        inners = [EUCLIDEAN] + ([HERMITIAN] if m % 2 == 0 else [])
        for _ in range(15):
            rows, cols = rng.randint(1, 3), rng.randint(4, 6)
            g = Matrix(ctx, [[rng.choice(els) for _ in range(cols)]
                             for _ in range(rows)])
            if rank(g) != rows:
                continue
            for inner in inners:
                h = dual_generator(g, inner)
                code_hull = gram_hull(g, inner)
                assert code_hull == gram_hull(h, inner)
                assert code_hull == hull_dim_bruteforce(g, inner)
                assert gram_hull(h, inner) == hull_dim_bruteforce(h, inner)


def test_self_orthogonal_single_row():
    ctx = field_new(5)
    # (1, 2) has 1 + 4 = 0: self-orthogonal, hull dim 1
    g = Matrix(ctx, [[0, ctx.log[2]]])
    assert gram_hull(g, EUCLIDEAN) == 1
    assert hull_dim_bruteforce(g, EUCLIDEAN) == 1
    h = dual_generator(g, EUCLIDEAN)
    assert gram_hull(h, EUCLIDEAN) == hull_dim_bruteforce(h, EUCLIDEAN) == 1
    # LCD single row
    g2 = Matrix(ctx, [[0, 0]])
    assert gram_hull(g2, EUCLIDEAN) == 0
    assert hull_dim_bruteforce(g2, EUCLIDEAN) == 0
    h2 = dual_generator(g2, EUCLIDEAN)
    assert gram_hull(h2, EUCLIDEAN) == hull_dim_bruteforce(h2, EUCLIDEAN) == 0


def invertible(ctx, l):
    """Strategy for an invertible l x l matrix over ctx."""
    row = st.lists(st.sampled_from(list(ctx.elements())), min_size=l,
                   max_size=l)
    return (st.lists(row, min_size=l, max_size=l)
            .map(lambda rows: Matrix(ctx, rows))
            .filter(lambda a: rank(a) == l))


@st.composite
def small_specs(draw):
    """2 <= l <= k <= n <= q <= 49, odd q; alpha often holds 0; v and A
    are random."""
    p, m = draw(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (11, 1),
                                 (13, 1), (5, 2), (3, 3), (31, 1), (7, 2)]))
    ctx = field_new(p, m)
    k = draw(st.integers(2, min(7, ctx.q)))
    l = draw(st.integers(2, min(4, k)))
    n = draw(st.integers(k, min(ctx.q, k + 5)))
    alpha = draw(st.permutations(list(ctx.elements())))[:n]
    if ZERO not in alpha and draw(st.booleans()):
        alpha[draw(st.integers(0, n - 1))] = ZERO
    v = draw(st.lists(st.sampled_from(list(ctx.nonzero_elements())),
                      min_size=n, max_size=n))
    return GrlSpec(ctx=ctx, alpha=alpha, v=v, a=draw(invertible(ctx, l)), k=k)


@settings(max_examples=200, deadline=None)
@given(small_specs())
def test_spec_gram_matches_generator_gram(spec):
    """The power-sum Gram equals G G^T (G conj(G)^T on square fields), so
    the production hull equals the stacked-generator oracle."""
    g = build_generator(spec)
    inners = [EUCLIDEAN] + ([HERMITIAN] if spec.ctx.m % 2 == 0 else [])
    for inner in inners:
        assert spec_gram(spec, inner) == gram(g, inner)
        assert spec_hull(spec, inner).hull_dim == hull_dim_bruteforce(g, inner)


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 4)])
def test_hermitian_spec_gram_evaluation_block_is_build_M(p, m):
    """alpha = gamma^t mu_k, v = 1: spec_gram minus its A conj(A)^T corner
    is the structure matrix M of the paper's power-sum identity."""
    ctx = field_new(p, m)
    rng = random.Random(p * m)
    els = list(ctx.elements())
    for k in (d for d in range(2, ctx.n + 1) if ctx.n % d == 0):
        for t in rng.sample(range(ctx.n), 3):
            l = rng.randint(2, min(4, k))
            while True:
                a = Matrix(ctx, [[rng.choice(els) for _ in range(l)]
                                 for _ in range(l)])
                if rank(a) == l:
                    break
            step = ctx.n // k
            spec = GrlSpec(ctx=ctx, alpha=[ctx.element(t + step * i)
                                           for i in range(1, k + 1)],
                           v=[ctx.one()] * k, a=a, k=k)
            gm = spec_gram(spec, HERMITIAN).data
            corner = mat_mul(a, transpose(conjugate(a))).data
            for r in range(k - l, k):
                for c in range(k - l, k):
                    gm[r][c] = ctx.sub(gm[r][c], corner[r - (k - l)][c - (k - l)])
            assert Matrix(ctx, gm) == build_M(ctx, k, t)


@st.composite
def sibling_specs(draw):
    """Two to five valid specs on the same alpha, v, k and l that differ
    only in their invertible A."""
    spec = draw(small_specs())
    mats = draw(st.lists(invertible(spec.ctx, spec.l), min_size=1,
                         max_size=4))
    return [spec] + [replace(spec, a=a) for a in mats]


@settings(max_examples=150, deadline=None)
@given(sibling_specs())
def test_point_gram_of_a_sibling_gives_the_same_hull(specs):
    """The A-free Gram part made from one spec serves its siblings: the
    reduced corner rows give the hull of the full Gram and of the
    stacked-generator oracle."""
    ctx = specs[0].ctx
    inners = [EUCLIDEAN] + ([HERMITIAN] if ctx.m % 2 == 0 else [])
    for inner in inners:
        points = point_gram(specs[-1], inner)
        for spec in specs:
            rep = hull_report(points, spec.a)
            assert rep == spec_hull(spec, inner)
            assert rep.gram_rank == rank(spec_gram(spec, inner))
            assert rep.hull_dim == \
                hull_dim_bruteforce(build_generator(spec), inner)


def test_hull_report_refuses_a_tail_matrix_of_another_size_or_field():
    spec = example_a1_spec()
    ctx = spec.ctx
    points = point_gram(spec, EUCLIDEAN)
    for a in (Matrix.identity(ctx, 3),
              Matrix(ctx, [[0, ZERO, ZERO], [ZERO, 0, ZERO]]),
              Matrix.identity(field_new(3, 2), 2)):
        with pytest.raises(GrlError, match=r"A must be 2 x 2 over GF\(3\^4\)"):
            hull_report(points, a)
    assert hull_report(points, spec.a).is_lcd
    # a tail width outside 2..k has no PointGram
    for l in (1, 6):
        with pytest.raises(GrlError, match=f"need 2 <= l <= k, got l={l} k=5"):
            points.with_tail_width(l)


def residue_hull(spec, inner):
    """The production hull, checked against k - rank(spec_gram) and the
    stacked-generator oracle."""
    rep = spec_hull(spec, inner)
    assert rep.hull_dim == spec.k - rank(spec_gram(spec, inner))
    assert rep.hull_dim == hull_dim_bruteforce(build_generator(spec), inner)
    return rep


def top_pivots(spec, inner):
    """The pivots of the Gram's top k - l rows, from rref."""
    top = spec_gram(spec, inner).data[:spec.k - spec.l]
    return rref(Matrix(spec.ctx, top))[1]


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2)])
def test_residue_hull_with_an_empty_top(p, m):
    # k = l: E is empty, every column is free, and the residue is the
    # whole Gram
    ctx, rng = field_new(p, m), random.Random(p)
    nonzero = list(ctx.nonzero_elements())
    for inner in (EUCLIDEAN, HERMITIAN):
        for k in (2, 3, 4):
            for _ in range(8):
                n = rng.randint(k, ctx.q)
                spec = GrlSpec(ctx=ctx,
                               alpha=rng.sample(list(ctx.elements()), n),
                               v=[rng.choice(nonzero) for _ in range(n)],
                               a=sample_invertible(ctx, k, rng), k=k)
                points = point_gram(spec, inner)
                assert points.top_rank == 0
                assert [len(w) for w in points.corner] == [1] * k
                residue_hull(spec, inner)


@pytest.mark.parametrize("p,m,k,l", [(3, 2, 5, 2), (3, 2, 6, 2),
                                     (5, 2, 7, 3), (5, 2, 9, 4)])
def test_residue_hull_with_a_rank_deficient_top(p, m, k, l):
    # alpha = all of GF(q)^*, v = 1: S(t) = -1 when q - 1 divides t and 0
    # otherwise, so most of the top rows vanish
    ctx, rng = field_new(p, m), random.Random(k)
    alpha = list(ctx.nonzero_elements())
    for inner in (EUCLIDEAN, HERMITIAN):
        for _ in range(10):
            spec = GrlSpec(ctx=ctx, alpha=alpha, v=[ctx.one()] * len(alpha),
                           a=sample_invertible(ctx, l, rng), k=k)
            assert point_gram(spec, inner).top_rank == \
                len(top_pivots(spec, inner)) < k - l
            residue_hull(spec, inner)


@pytest.mark.parametrize("family,qs", [("E1", (25,)), ("E2", (25,)),
                                       ("H1", (3, 5, 9)), ("H3", (5, 9))])
def test_residue_hull_with_pivots_in_the_corner(family, qs):
    # family cells put Gram entries on the anti-diagonal (or diagonal),
    # so pivots of E fall on corner columns k-l..k-1; every one of these
    # fields is a square, so both products apply
    rng = random.Random(7)
    seen = {EUCLIDEAN: 0, HERMITIAN: 0}
    for q, k, l, shifts in corpus_cells(family, qs):
        cell = FamilyParams(family=family, q=q, k=k, l=l, **shifts)
        spec = build_spec(replace(cell, a=sample_invertible(cell.ctx, l, rng)))
        for inner in seen:
            if any(p >= k - l for p in top_pivots(spec, inner)):
                residue_hull(spec, inner)
                seen[inner] += 1
    assert min(seen.values()) >= 10, seen


def coset_block_specs(ctx, rng, count):
    """count specs on unions of cosets of a subgroup mu_d, v constant on
    each coset: their power sums vanish off multiples of d, which puts
    pivots of E on corner columns with E's rows reaching free columns."""
    n, nonzero = ctx.n, list(ctx.nonzero_elements())
    divisors = [d for d in range(1, n) if n % d == 0]
    for _ in range(count):
        d = rng.choice(divisors)
        shifts = rng.sample(range(n // d), rng.randint(1, min(3, n // d)))
        weights = [rng.choice(nonzero) for _ in shifts]
        alpha = [ctx.element(s + n // d * i) for s in shifts for i in range(d)]
        v = [w for w in weights for _ in range(d)]
        if len(alpha) < 2:
            continue
        k = rng.randint(2, min(len(alpha), 9))
        yield GrlSpec(ctx=ctx, alpha=alpha, v=v,
                      a=sample_invertible(ctx, rng.randint(2, k), rng), k=k)


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (7, 2)])
def test_residue_hull_with_corner_pivot_rows_on_free_columns(p, m):
    # a pivot of E on a corner column whose row of E reaches a free
    # column: each A then subtracts a multiple of that row from the
    # residue.  Family cells have corner pivots, but their rows of E are
    # unit rows
    ctx, rng = field_new(p, m), random.Random(p)
    seen = {EUCLIDEAN: 0, HERMITIAN: 0}
    for spec in coset_block_specs(ctx, rng, 1500):
        split = spec.k - spec.l
        for inner in seen:
            top = spec_gram(spec, inner).data[:split]
            reduced, pivots = rref(Matrix(ctx, top))
            if any(c >= split and any(x >= 0 for x in row[c + 1:])
                   for c, row in zip(pivots, reduced.data)):
                residue_hull(spec, inner)
                seen[inner] += 1
    assert min(seen.values()) >= 5, seen


@settings(max_examples=100, deadline=None)
@given(small_specs(), st.data())
def test_point_gram_of_another_tail_width_gives_the_same_hulls(spec, data):
    """A PointGram made for another l, re-split for spec's l, equals a
    fresh PointGram and shares its power sums: none is taken again."""
    l = data.draw(st.integers(2, spec.k).filter(lambda w: w != spec.l)
                  if spec.k > 2 else st.just(2))
    other = replace(spec, a=data.draw(invertible(spec.ctx, l)))
    inners = [EUCLIDEAN] + ([HERMITIAN] if spec.ctx.m % 2 == 0 else [])
    for inner in inners:
        shared = point_gram(other, inner)
        points = shared.with_tail_width(spec.l)
        assert points.sums is shared.sums
        assert points == point_gram(spec, inner)
        assert hull_report(points, spec.a) == spec_hull(spec, inner)
