import random

import pytest

from grlcodes.classify import CodeReport, classify
from grlcodes.eaqecc import MissingHull, derive
from grlcodes.gf import field_new
from grlcodes.hull import EUCLIDEAN, HERMITIAN, HullReport
from grlcodes.linalg import Matrix
from grlcodes.grl import GrlSpec


def params(t):
    return (t.n, t.k_q, t.d, t.c)


def unit_spec(ctx, alpha, a_rows, k):
    a = Matrix.from_strs(ctx, a_rows)
    return GrlSpec(ctx=ctx, alpha=alpha, v=[ctx.one()] * len(alpha), a=a, k=k)


def test_example_a1_tuples():
    ctx = field_new(3, 4)
    spec = unit_spec(ctx, [ctx.element(16 * i + 2) for i in range(1, 6)],
                     [["g^1", "g^2"], ["g^3", "g^5"]], 5)
    rep = classify(spec)
    prim, dual = derive(rep, EUCLIDEAN)
    assert params(prim) == (7, 5, 3, 2)
    assert params(dual) == (7, 2, 6, 5)
    assert prim.mds and dual.mds  # the classical code is MDS


def test_hull_one_template():
    # a hull-1 code of length k+l gives [[k+l, k-1, d, l-1]]
    from grlcodes.families import (FamilyParams, build_spec, family_ctx,
                                   sample_first_row_sum)
    ctx = family_ctx("E1", 25)
    rng = random.Random(2)
    k, l, delta = 8, 4, 1
    target = ctx.neg(ctx.mul(ctx.from_int(k), ctx.element(delta * k)))
    a = sample_first_row_sum(ctx, l, target, rng, hermitian=False)
    spec = build_spec(FamilyParams(family="E1", q=25, k=k, l=l, a=a,
                                   delta=delta))
    rep = classify(spec)
    assert rep.hull_e.hull_dim == 1
    prim, dual = derive(rep, EUCLIDEAN)
    assert params(prim) == (k + l, k - 1, rep.d, l - 1)
    assert params(dual) == (k + l, l - 1, rep.d_dual, k - 1)


def test_zero_hull_substitution():
    # [n, k] LCD with dual distance dd gives the pair [[n, n-k, dd, k]]
    ctx = field_new(5, 2)
    spec = unit_spec(ctx, [ctx.element(3 * i + 1) for i in range(1, 9)],
                     [["1", "g^1"], ["g^2", "g^4"]], 8)
    rep = classify(spec)
    assert rep.hull_e.is_lcd
    prim, dual = derive(rep, EUCLIDEAN)
    n, k = rep.n, rep.k
    assert params(prim) == (n, k, rep.d, n - k)
    assert params(dual) == (n, n - k, rep.d_dual, k)
    assert prim.c >= 0 and dual.c >= 0


def test_hermitian_requires_hull():
    rep = CodeReport(n=7, k=5, d=3, d_dual=6, defect=0, defect_dual=0,
                     label="MDS", field="31", modulus=[28, 1])
    with pytest.raises(MissingHull):
        derive(rep, HERMITIAN)
    rep.hull_h = HullReport(HERMITIAN, 5, 0, True)
    prim, dual = derive(rep, HERMITIAN)
    assert params(prim) == (7, 5, 3, 2)
    assert params(dual) == (7, 2, 6, 5)


def test_serialization():
    ctx = field_new(3, 4)
    spec = unit_spec(ctx, [ctx.element(16 * i + 2) for i in range(1, 6)],
                     [["g^1", "g^2"], ["g^3", "g^5"]], 5)
    rep = classify(spec)
    prim, _ = derive(rep, EUCLIDEAN)
    assert prim.to_json_dict() == {"n": 7, "k": 5, "d": 3, "c": 2,
                                   "mds": True, "source": "C/euclidean"}
    assert prim.csv_row() == "7,5,3,2,1"
