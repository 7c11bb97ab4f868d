import random

import pytest

from grlcodes.classify import (BudgetExceeded, TooLarge, classify,
                               dual_min_distance, enum_min_distance,
                               grl_min_distance, min_distance)
from grlcodes.gf import ZERO, field_new
from grlcodes.grl import GrlSpec, build_generator
from grlcodes.linalg import Matrix, rank


def unit_spec(ctx, alpha, a_rows, k):
    a = Matrix.from_strs(ctx, a_rows)
    return GrlSpec(ctx=ctx, alpha=alpha, v=[ctx.one()] * len(alpha), a=a, k=k)


A22 = [["g^1", "g^2"], ["g^3", "g^5"]]


def example_a1_spec():
    ctx = field_new(3, 4)
    return unit_spec(ctx, [ctx.element(16 * i + 2) for i in range(1, 6)], A22, 5)


def random_small_spec(rng, ctx):
    els = list(ctx.nonzero_elements())
    k = rng.randint(2, 4)
    n = rng.randint(k, min(ctx.q, k + 3))
    l = rng.randint(2, k)
    alpha = rng.sample(list(ctx.elements()), n)
    v = [rng.choice(els) for _ in range(n)]
    while True:
        a = Matrix(ctx, [[rng.choice([ZERO] + els) for _ in range(l)]
                         for _ in range(l)])
        if rank(a) == l:
            return GrlSpec(ctx=ctx, alpha=alpha, v=v, a=a, k=k)


def test_min_distance_repetition_code():
    ctx = field_new(5)
    g = Matrix(ctx, [[0, 0, 0, 0]])
    assert min_distance(g) == 4
    assert enum_min_distance(g) == 4


def test_min_distance_example_a1():
    spec = example_a1_spec()
    g = build_generator(spec)
    assert min_distance(g) == 3
    assert grl_min_distance(spec) == 3


def test_distance_methods_agree_with_enumeration():
    rng = random.Random(2025)
    for p, m in ((5, 1), (7, 1), (3, 2), (13, 1)):
        ctx = field_new(p, m)
        for _ in range(12):
            spec = random_small_spec(rng, ctx)
            g = build_generator(spec)
            d_enum = enum_min_distance(g, limit=30000)
            assert grl_min_distance(spec) == d_enum
            assert min_distance(g) == d_enum


def test_dual_distance_agrees_with_enumeration():
    rng = random.Random(77)
    from grlcodes.hull import EUCLIDEAN, dual_generator
    for p, m in ((5, 1), (3, 2), (11, 1)):
        ctx = field_new(p, m)
        for _ in range(10):
            spec = random_small_spec(rng, ctx)
            g = build_generator(spec)
            h = dual_generator(g, EUCLIDEAN)
            if ctx.q ** h.rows - 1 > 30000:
                continue
            assert dual_min_distance(spec) == enum_min_distance(h, limit=30000)


def test_budget_exceeded_carries_lower_bound():
    ctx = field_new(5, 2)
    alpha = [ctx.element(3 * i + 1) for i in range(1, 9)]
    spec = unit_spec(ctx, alpha, [["g^0", "g^1"], ["g^2", "g^4"]], 8)
    g = build_generator(spec)
    with pytest.raises(BudgetExceeded) as exc:
        min_distance(g, budget=10)
    assert exc.value.lower_bound == 2 and exc.value.budget == 10
    assert str(exc.value) == "distance search exceeded budget 10; d >= 2"
    with pytest.raises(BudgetExceeded) as exc:
        dual_min_distance(spec, budget=3)
    assert exc.value.lower_bound == 2 and exc.value.budget == 3
    assert str(exc.value) == "distance search exceeded budget 3; d >= 2"


def test_enum_guard():
    ctx = field_new(5, 2)
    with pytest.raises(TooLarge):
        enum_min_distance(Matrix.identity(ctx, 8), limit=1000)


def test_classify_example_a1():
    rep = classify(example_a1_spec())
    assert rep.params == (7, 5, 3)
    assert rep.label == "MDS" and rep.defect == 0
    assert rep.d_dual == 6 and rep.defect_dual == 0
    assert rep.hull_e.is_lcd
    assert rep.hull_h is not None  # GF(81) is a square field


def test_classify_example_a2_nmds():
    ctx = field_new(5, 2)
    a = [["g^0", "g^1", "g^2", "g^1"],
         ["g^1", "g^3", "g^5", "g^7"],
         ["g^1", "g^6", "g^10", "g^14"],
         ["g^3", "g^9", "g^15", "g^21"]]
    spec = unit_spec(ctx, [ctx.element(3 * i + 1) for i in range(1, 9)], a, 8)
    rep = classify(spec)
    assert rep.params == (12, 8, 4)
    assert rep.label == "NMDS"
    assert rep.hull_e.is_lcd


def test_classify_mds_dual_is_mds():
    # duality consistency on an MDS report
    rep = classify(example_a1_spec())
    assert rep.label == "MDS"
    assert rep.d_dual == rep.k + 1


def test_min_distance_parity_method_example_a7():
    # [18,8,10]: the parity-check matrix is 10x18 and every 9-column
    # subset is independent while some 10-subset is dependent
    ctx = field_new(5, 2)
    alpha = [ctx.element(3 * i) for i in range(1, 9)] + \
            [ctx.element(3 * i + 1) for i in range(1, 9)]
    spec = unit_spec(ctx, alpha, [["g^0", "g^1"], ["g^2", "g^4"]], 8)
    assert min_distance(build_generator(spec)) == 10


def test_distance_depends_on_the_generator_convention():
    """The same power table yields different codes under different
    primitive elements, and the minimum distance genuinely moves; this
    pins the generator convention as part of the interface."""
    ctx = field_new(5, 2)
    a_exps = [[0, 1, 2, 1], [1, 3, 5, 7], [1, 6, 10, 14], [3, 9, 15, 21]]

    def dist_under(u):
        a = Matrix(ctx, [[ctx.element(u * e) for e in row] for row in a_exps])
        alpha = [ctx.element(u * (3 * i + 1)) for i in range(1, 9)]
        spec = GrlSpec(ctx=ctx, alpha=alpha, v=[ctx.one()] * 8, a=a, k=8)
        return grl_min_distance(spec)

    dists = {u: dist_under(u) for u in (1, 5, 7, 11, 13, 17, 19, 23)}
    assert dists[1] == 4          # the pinned convention
    assert set(dists.values()) == {3, 4}  # other generators give 3


def test_every_mds_appendix_report_has_mds_dual(appendix_results):
    seen = 0
    for r in appendix_results.values():
        if r.report.label == "MDS":
            assert r.report.d_dual == r.report.k + 1, r.id
            seen += 1
    assert seen >= 4  # the corpus carries several MDS rows


def test_singleton_defect_nonnegative():
    rng = random.Random(31)
    for p, m in ((5, 1), (3, 2)):
        ctx = field_new(p, m)
        for _ in range(8):
            rep = classify(random_small_spec(rng, ctx))
            assert rep.defect >= 0
            assert rep.defect_dual >= 0
            assert 1 <= rep.d <= rep.n - rep.k + 1


def test_report_serialization():
    rep = classify(example_a1_spec())
    d = rep.to_json_dict()
    assert d["label"] == "MDS" and d["hull_euclidean"]["is_lcd"]
    assert d["eaqecc"]["euclidean"][0]["n"] == 7
    assert rep.csv_row().startswith("7,5,3,MDS,0,")
