from itertools import product

import pytest

from grlcodes.counting import (NonIntegerResult, TooLarge, _surd_pair_sum,
                               brute_quadric_count, count_nf,
                               count_nf_excluding_zero, count_nf_star,
                               hull1_count_bound)
from grlcodes.gf import ZERO, GrlError, NotADivisor, field_new
from grlcodes.linalg import Matrix, rank

FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]


def brute_histogram(ctx, k, nonzero_only):
    pool = list(ctx.nonzero_elements()) if nonzero_only else list(ctx.elements())
    hist = {c: 0 for c in ctx.elements()}
    for tup in product(pool, repeat=k):
        acc = ZERO
        for x in tup:
            acc = ctx.add(acc, ctx.mul(x, x))
        hist[acc] += 1
    return hist


def test_small_frozen_values():
    c5 = field_new(5)
    assert count_nf(c5, 2, ZERO) == 9
    assert count_nf_excluding_zero(c5, 2, ZERO) == 8
    assert count_nf(c5, 1, c5.log[4]) == 2
    assert count_nf(c5, 1, c5.log[2]) == 0
    assert count_nf_star(c5, 1, c5.log[4]) == 2
    assert count_nf_star(c5, 2, ZERO) == 8
    c7 = field_new(7)
    assert count_nf_star(c7, 2, ZERO) == 0  # -1 is a non-square mod 7
    c3 = field_new(3)
    assert brute_quadric_count(c3, 2, c3.one(), nonzero_only=False) == 4
    assert brute_quadric_count(c3, 2, c3.one(), nonzero_only=True) == 0
    assert brute_quadric_count(c5, 1, ZERO, nonzero_only=False) == 1


@pytest.mark.parametrize("p,m", FIELDS)
def test_formulas_match_enumeration_all_c(p, m):
    """Gating test: closed forms == literal counts for k <= 4, every c."""
    ctx = field_new(p, m)
    for k in range(1, 5):
        hist = brute_histogram(ctx, k, nonzero_only=False)
        hist_star = brute_histogram(ctx, k, nonzero_only=True)
        for c in ctx.elements():
            assert count_nf(ctx, k, c) == hist[c], (p, m, k, ctx.fmt(c))
            assert count_nf_star(ctx, k, c) == hist_star[c], (p, m, k, ctx.fmt(c))
            assert brute_quadric_count(ctx, k, c) == hist[c]
            assert brute_quadric_count(ctx, k, c, nonzero_only=True) \
                == hist_star[c]


@pytest.mark.parametrize("p,m", FIELDS)
def test_partition_identities(p, m):
    ctx = field_new(p, m)
    q = ctx.q
    for k in range(1, 5):
        assert sum(count_nf(ctx, k, c) for c in ctx.elements()) == q ** k
        assert sum(count_nf_star(ctx, k, c) for c in ctx.elements()) == (q - 1) ** k


def test_surd_sums_are_exact_integers():
    for q in (5, 9, 13, 25):
        for k in range(1, 9):
            _surd_pair_sum(k, q)  # would raise NonIntegerResult on failure
    for q in (3, 7, 11):
        for k in range(1, 9):
            _surd_pair_sum(k, -q)


@pytest.mark.parametrize("p,m", FIELDS)
def test_formulas_match_the_convolution_past_the_enumeration(p, m):
    """Closed forms == the convolution oracle for k = 5..12, every c: q = 1
    and q = 3 mod 4, and c zero, a square and a non-square."""
    ctx = field_new(p, m)
    for k in range(5, 13):
        for c in ctx.elements():
            assert count_nf(ctx, k, c) == brute_quadric_count(ctx, k, c), \
                (p, m, k, ctx.fmt(c))
            assert count_nf_star(ctx, k, c) == brute_quadric_count(
                ctx, k, c, nonzero_only=True), (p, m, k, ctx.fmt(c))


def test_enumeration_guard():
    # 10 * 1019^2 field operations, and 3^8384 with over 4,000 digits
    with pytest.raises(TooLarge, match="work guard"):
        brute_quadric_count(field_new(1019), 10, ZERO)
    with pytest.raises(TooLarge, match="output guard"):
        brute_quadric_count(field_new(3), 8384, ZERO)


def test_convolution_matches_closed_forms_near_the_guard():
    # 3^8383 < 10^4000 <= 3^8384: the longest tuples the output guard admits
    ctx = field_new(3)
    k = 8383
    counts = [brute_quadric_count(ctx, k, c) for c in ctx.elements()]
    assert counts == [count_nf(ctx, k, c) for c in ctx.elements()]
    assert sum(counts) == 3 ** k
    stars = [brute_quadric_count(ctx, k, c, nonzero_only=True)
             for c in ctx.elements()]
    assert stars == [count_nf_star(ctx, k, c) for c in ctx.elements()]
    assert sum(stars) == 2 ** k


def gl2_first_row_count(ctx, target, nonzero_only):
    """Enumerate GL_2(F_q) matrices whose first row squares sum to target."""
    count = 0
    els = list(ctx.elements())
    pool = list(ctx.nonzero_elements()) if nonzero_only else els
    for a11 in pool:
        for a12 in pool:
            if ctx.add(ctx.mul(a11, a11), ctx.mul(a12, a12)) != target:
                continue
            if a11 == ZERO and a12 == ZERO:
                continue
            for a21 in els:
                for a22 in els:
                    m = Matrix(ctx, [[a11, a12], [a21, a22]])
                    if rank(m) == 2:
                        count += 1
    return count


@pytest.mark.parametrize("variant", ["all", "nonzero"])
def test_hull1_bound_dominates_enumeration_q5(variant):
    # full enumeration at q=5, l=2 (k=4 | q-1) never exceeds the bound
    ctx = field_new(5)
    k, l = 4, 2
    for delta in range(1, 5):
        bound = hull1_count_bound(ctx, delta, l, variant)
        target = ctx.neg(ctx.mul(ctx.element(delta * k), ctx.from_int(k)))
        actual = gl2_first_row_count(ctx, target, variant == "nonzero")
        assert actual <= bound, (delta, variant, actual, bound)


def test_hull1_bound_value_q5():
    # d(2)-1 = 1 and N_f(2, g^{4 delta + 2} * 4, 5) = 4 give 4 * 20 = 80
    ctx = field_new(5)
    assert hull1_count_bound(ctx, 1, 2, "all") == 80
    assert hull1_count_bound(ctx, 1, 2, "nonzero") == 0
    with pytest.raises(NotADivisor):
        hull1_count_bound(field_new(7), 1, 2, "all")


def test_hull1_bound_refuses_tail_width_below_two():
    # k = 2l = 2 divides q-1 = 12, and the count at l = 1 still agrees
    # with brute force, but a bound for l < 2 counts no GRL code
    ctx = field_new(13)
    c = ctx.mul(ctx.from_int(2), ctx.element(2 + 6))
    assert count_nf_excluding_zero(ctx, 1, c) == brute_quadric_count(ctx, 1, c)
    for l in (1, 0):
        with pytest.raises(GrlError, match=f"l = {l} must be >= 2"):
            hull1_count_bound(ctx, 1, l, "all")
    with pytest.raises(GrlError, match="unknown variant 'some'"):
        hull1_count_bound(ctx, 1, 2, "some")
