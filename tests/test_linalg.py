import random
from itertools import combinations, permutations

import pytest

from grlcodes.gf import ZERO, NotASquareField, field_new
from grlcodes.linalg import (FieldMismatch, Matrix, ShapeMismatch,
                             conjugate, kernel_basis, mat_mul, rank, rref,
                             stack, transpose)


def det_by_permutations(ctx, m):
    """Leibniz determinant; independent of the elimination code."""
    assert m.rows == m.cols
    acc = ZERO
    for perm in permutations(range(m.rows)):
        inv = sum(1 for i in range(m.rows) for j in range(i)
                  if perm[j] > perm[i])
        term = ctx.one()
        for i, j in enumerate(perm):
            term = ctx.mul(term, m.data[i][j])
        if inv % 2:
            term = ctx.neg(term)
        acc = ctx.add(acc, term)
    return acc


def rank_by_minors(ctx, m):
    """Largest size of a nonzero minor (brute force, small matrices)."""
    for size in range(min(m.rows, m.cols), 0, -1):
        for rs in combinations(range(m.rows), size):
            for cs in combinations(range(m.cols), size):
                sub = Matrix(ctx, [[m.data[i][j] for j in cs] for i in rs])
                if det_by_permutations(ctx, sub) != ZERO:
                    return size
    return 0


def random_matrix(ctx, rng, rows, cols):
    els = list(ctx.elements())
    return Matrix(ctx, [[rng.choice(els) for _ in range(cols)]
                        for _ in range(rows)])


def test_rank_identity():
    ctx = field_new(7)
    assert rank(Matrix.identity(ctx, 4)) == 4


def test_rank_vandermonde_3x5():
    ctx = field_new(11)
    pts = [ctx.element(e) for e in (0, 1, 2, 3, 4)]
    m = Matrix(ctx, [[ctx.pow(a, r) for a in pts] for r in range(3)])
    assert rank_by_minors(ctx, m) == 3  # independent oracle
    assert rank(m) == 3


def test_rank_repeated_row():
    ctx = field_new(5)
    m = Matrix(ctx, [[0, 1, ZERO], [1, ZERO, 0], [0, 1, ZERO]])
    assert rank(m) == 2


@pytest.mark.parametrize("p,m", [(5, 1), (3, 2), (13, 1), (5, 2)])
def test_rank_matches_minor_oracle(p, m):
    ctx = field_new(p, m)
    rng = random.Random(90 + p + m)
    for _ in range(25):
        a = random_matrix(ctx, rng, rng.randint(1, 4), rng.randint(1, 4))
        assert rank(a) == rank_by_minors(ctx, a)


@pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (3, 2), (13, 1)])
def test_rank_of_product_bound(p, m):
    ctx = field_new(p, m)
    rng = random.Random(7_000 + p * m)
    for _ in range(100):
        a = random_matrix(ctx, rng, rng.randint(1, 5), rng.randint(1, 5))
        b = random_matrix(ctx, rng, a.cols, rng.randint(1, 5))
        assert rank(mat_mul(a, b)) <= min(rank(a), rank(b))


@pytest.mark.parametrize("p,m", [(5, 1), (3, 2), (11, 1)])
def test_rref_idempotent_and_kernel_contract(p, m):
    ctx = field_new(p, m)
    rng = random.Random(31_000 + p * m)
    for _ in range(50):
        a = random_matrix(ctx, rng, rng.randint(1, 5), rng.randint(1, 6))
        r, piv = rref(a)
        r2, piv2 = rref(r)
        assert r2 == r and piv2 == piv
        ker = kernel_basis(a)
        assert rank(a) + ker.rows == a.cols
        if ker.rows:
            prod = mat_mul(a, transpose(ker))
            assert all(x == ZERO for row in prod.data for x in row)
        # transposed form of the same contract
        kt = kernel_basis(transpose(a))
        assert rank(a) + kt.rows == a.rows


def test_mat_mul_shape_and_field_checks():
    c5, c7 = field_new(5), field_new(7)
    a = Matrix.identity(c5, 2)
    with pytest.raises(ShapeMismatch):
        mat_mul(a, Matrix.zeros(c5, 3, 2))
    with pytest.raises(FieldMismatch):
        mat_mul(a, Matrix.identity(c7, 2))
    with pytest.raises(ShapeMismatch):
        stack(a, Matrix.zeros(c5, 1, 3))


def test_conj_transpose():
    ctx = field_new(3, 2)
    z = Matrix.zeros(ctx, 2, 3)
    zt = transpose(conjugate(z))
    assert zt.rows == 3 and all(x == ZERO for row in zt.data for x in row)
    one_gamma = Matrix(ctx, [[ctx.gen()]])
    assert transpose(conjugate(one_gamma)).data[0][0] == ctx.element(3)
    rng = random.Random(4)
    m = random_matrix(ctx, rng, 3, 4)
    assert transpose(conjugate(transpose(conjugate(m)))) == m
    with pytest.raises(NotASquareField):
        conjugate(Matrix.identity(field_new(5), 2))


def test_matrix_string_roundtrip():
    ctx = field_new(5, 2)
    m = Matrix.from_strs(ctx, [["g^3", "0"], ["1", "g^25"]])
    assert m.data == [[3, ZERO], [0, 1]]
    assert Matrix.from_strs(ctx, m.to_strs()) == m
