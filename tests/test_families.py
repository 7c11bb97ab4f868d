import hashlib
import json
import random
from collections import Counter
from dataclasses import replace

import pytest

from grlcodes import families, gf, hull, linalg
from grlcodes.families import (EUCLIDEAN_FAMILIES, FAMILIES,
                               HERMITIAN_FAMILIES, CellPoints, FamilyParams,
                               NoClaim, audit, audit_cell, build_spec,
                               corpus_cells, delta_conditions, diag_powers,
                               family_ctx, make_alpha, precondition_gap,
                               predict, sample_first_row_sum,
                               sample_invertible, sweep)
from grlcodes.gf import ZERO, GrlError, field_new
from grlcodes.grl import (DistinctnessViolation, GrlSpec, InvariantViolation,
                         build_generator)
from grlcodes.hull import EUCLIDEAN, HERMITIAN, gram, spec_gram
from grlcodes.linalg import Matrix, rank


def a22(ctx):
    return Matrix.from_strs(ctx, [["g^1", "g^2"], ["g^3", "g^5"]])


def corner_target(points):
    """-k X, the first-row sum that makes the Gram corner of the cell of
    points vanish."""
    ctx = points.cell.ctx
    return ctx.neg(ctx.mul(ctx.from_int(points.cell.k), points.x))


def test_make_alpha_e1_example_a1():
    ctx = family_ctx("E1", 81)
    p = FamilyParams(family="E1", q=81, k=5, l=2, a=a22(ctx), delta=2)
    assert make_alpha(p) == [ctx.element(e) for e in (18, 34, 50, 66, 82)]


def test_make_alpha_e3_example_a5():
    ctx = family_ctx("E3", 31)
    p = FamilyParams(family="E3", q=31, k=5, l=2, a=a22(ctx), s=1, t=9)
    want = [7, 13, 19, 25, 31, 15, 21, 27, 33, 39]
    assert make_alpha(p) == [ctx.element(e) for e in want]


def test_make_alpha_h4_multiblock():
    ctx = family_ctx("H4", 11)
    p = FamilyParams(family="H4", q=11, k=5, l=2, a=a22(ctx), delta=1)
    want = [24, 48, 72, 96, 120, 25, 49, 73, 97, 121]
    assert make_alpha(p) == [ctx.element(e) for e in want]


def test_make_alpha_h2_prepends_zero():
    ctx = family_ctx("H2", 5)
    p = FamilyParams(family="H2", q=5, k=4, l=2, a=a22(ctx), delta=1)
    alpha = make_alpha(p)
    assert alpha[0] == ZERO and len(alpha) == 5


def test_make_alpha_distinctness_violation():
    ctx = family_ctx("E3", 31)
    p = FamilyParams(family="E3", q=31, k=5, l=2, a=a22(ctx), s=7, t=1)
    with pytest.raises(DistinctnessViolation):
        make_alpha(p)  # 6 | 6


def test_distinctness_matches_literal_comparison():
    ctx = family_ctx("E3", 25)
    step = 24 // 4
    for s in range(1, 25):
        for t in range(1, s):
            p = FamilyParams(family="E3", q=25, k=4, l=2, a=a22(ctx), s=s, t=t)
            try:
                alpha = make_alpha(p)
                ok = True
                assert len(set(alpha)) == len(alpha)
            except DistinctnessViolation:
                ok = False
            assert ok == ((s - t) % step != 0)


def test_predict_e1_clauses():
    ctx = family_ctx("E1", 81)
    p = FamilyParams(family="E1", q=81, k=5, l=2, a=a22(ctx), delta=2)
    pred = predict(p)
    assert pred.claim == "lcd" and "corner" in pred.witnesses
    # l = k/2 with corner forced to zero: hull_eq 1
    ctx25 = family_ctx("E1", 25)
    rng = random.Random(1)
    k, l, delta = 8, 4, 1
    target = ctx25.neg(ctx25.mul(ctx25.from_int(k), ctx25.element(delta * k)))
    a = sample_first_row_sum(ctx25, l, target, rng, hermitian=False)
    assert a is not None
    p2 = FamilyParams(family="E1", q=25, k=k, l=l, a=a, delta=delta)
    pred2 = predict(p2)
    assert pred2.claim == "hull_eq" and pred2.value == 1
    rec = audit(p2)
    assert rec.passed and rec.computed_hull == 1


def test_first_row_sum_without_a_nonzero_row_is_none():
    # q = 7 is 3 mod 4, so -1 is a non-square and x^2 + y^2 = 0 has only
    # the zero row, which no invertible A has
    a = sample_first_row_sum(field_new(7), 2, ZERO, random.Random(1),
                             hermitian=False)
    assert a is None


def test_predict_h1_diagonal_regime_bound():
    ctx = family_ctx("H1", 9)
    a = diag_powers(ctx, (2, 3, 4))
    p = FamilyParams(family="H1", q=9, k=5, l=3, a=a, delta=1)
    pred = predict(p)
    assert pred.claim == "hull_le" and pred.value == 3
    rec = audit(p)
    assert rec.passed and rec.computed_hull == 3  # bound attained


def test_predict_no_claim_cases():
    ctx = family_ctx("E1", 25)
    # l > k/2 for a single-block family: nothing applies
    p = FamilyParams(family="E1", q=25, k=4, l=3,
                     a=sample_invertible(ctx, 3, random.Random(0)), delta=1)
    assert predict(p).claim == "none"
    with pytest.raises(NoClaim):
        audit(p)


def test_delta_conditions_example_values():
    # q = 81, k = 4: v2(80) = 4, v2(4) = 2
    assert 2 in delta_conditions(81, 4, 1)  # delta = 2^{4-2-2} = 1
    assert 4 in delta_conditions(81, 4, 32)  # delta = 2^{v2(q-1)+1}
    assert 5 in delta_conditions(81, 4, 1)  # delta = 5^{1-0-1} = 1
    # q = 25, k = 8: v2(24) = 3 = v2(8): condition (1) with delta = 2
    assert 1 in delta_conditions(25, 8, 2)
    # q = 49, k = 6: v2(48)-v2(6) = 3, v3(48) = 1 = v3(6), delta = 9 = 3^{1+1}
    assert 3 in delta_conditions(49, 6, 9)
    assert delta_conditions(25, 8, 3) == []
    # every condition needs delta to be 1 or a positive prime power
    assert delta_conditions(81, 4, 0) == []


def test_five_condition_triples_keep_theta_nonzero():
    # generated (q, k, delta) triples satisfy 1 + gamma^{delta k} != 0
    for q in (25, 49, 81, 121, 169):
        ctx = family_ctx("E3", q)
        for k in range(4, 17):
            if (q - 1) % k:
                continue
            for delta in range(1, q):
                conds = delta_conditions(q, k, delta)
                if not conds:
                    continue
                val = ctx.add(ctx.one(), ctx.element(delta * k))
                assert val != ZERO, (q, k, delta, conds)
                # and the blocks stay distinct
                assert delta % ((q - 1) // k) != 0, (q, k, delta, conds)


def test_h3_t_set_controls_antidiagonal_entries():
    # for v2(s-t) outside T every anti-diagonal Gram entry is nonzero
    q, k, l = 13, 6, 2
    ctx = family_ctx("H3", q)
    for s, t in ((4, 1), (5, 2), (10, 1), (11, 2), (28, 1)):
        p = FamilyParams(family="H3", q=q, k=k, l=l, a=a22(ctx), s=s, t=t)
        pred = predict(p)
        assert pred.claim == "lcd", (s, t, pred.clause)
        g = gram(build_generator(build_spec(p)), HERMITIAN)
        for i in range(1, k):
            assert g.data[i][(k - i) % k] != ZERO or (k - i) % k >= k - l


def test_audit_example_a3_parameters():
    ctx = family_ctx("E2", 25)
    a = Matrix.from_strs(ctx, [["g^2", "g^4", "g^6"],
                               ["g^2", "g^5", "g^7"],
                               ["g^5", "g^8", "g^9"]])
    p = FamilyParams(family="E2", q=25, k=12, l=3, a=a, delta=2)
    pred = predict(p)
    assert pred.claim == "lcd"
    rec = audit(p)
    assert rec.passed and rec.computed_hull == 0


def test_audit_refuses_without_claim():
    ctx = family_ctx("H4", 9)
    rng = random.Random(3)
    # q=9, k=8, delta=4: S_1 = {1,3,5,7} nonempty -> no claim
    p = FamilyParams(family="H4", q=9, k=8, l=2,
                     a=sample_invertible(ctx, 2, rng), delta=4)
    pred = predict(p)
    assert pred.claim == "none"
    assert pred.witnesses["S_1"] == [1, 3, 5, 7]
    with pytest.raises(NoClaim):
        audit(p)


@pytest.mark.parametrize("q,k,l,delta", [(3, 4, 3, 3), (5, 6, 4, 5)])
def test_h4_colliding_blocks_have_no_claim(q, k, l, delta):
    # k | q+1 with (q^2-1)/k <= delta: the shifts 0 and (q^2-1)/k give the
    # same block, so there is no code to claim a hull for
    p = FamilyParams(family="H4", q=q, k=k, l=l,
                     a=Matrix.identity(family_ctx("H4", q), l), delta=delta)
    pred = predict(p)
    assert (pred.claim, pred.clause) == \
        ("none", "blocks collide: (q^2-1)/k <= delta")
    with pytest.raises(DistinctnessViolation):
        make_alpha(p)


def test_e2_hull_branches():
    # q = 25, k = 4, p | k+1 = 5: exact hull dims 1 and 2
    ctx = family_ctx("E2", 25)
    rng = random.Random(8)
    k, l, delta = 4, 2, 1
    p1 = FamilyParams(family="E2", q=25, k=k, l=l,
                      a=sample_invertible(ctx, l, rng), delta=delta)
    pred1 = predict(p1)
    assert pred1.claim == "hull_eq"
    rec1 = audit(p1)
    assert rec1.passed
    target = ctx.neg(ctx.mul(ctx.from_int(k), ctx.element(delta * k)))
    a2 = sample_first_row_sum(ctx, l, target, rng, hermitian=False)
    assert a2 is not None
    p2 = FamilyParams(family="E2", q=25, k=k, l=l, a=a2, delta=delta)
    pred2 = predict(p2)
    assert (pred2.claim, pred2.value) == ("hull_eq", 2)
    assert audit(p2).passed


def test_e4_p3_hull_branch():
    ctx = family_ctx("E4", 81)
    rng = random.Random(5)
    p = FamilyParams(family="E4", q=81, k=5, l=2,
                     a=sample_invertible(ctx, 2, rng))
    pred = predict(p)
    assert (pred.claim, pred.value) == ("hull_eq", 1)
    assert audit(p).passed


def test_sweep_small_deterministic():
    recs, exhausted = sweep("E1", qs=(25,), samples=2, seed=7)
    assert recs and not exhausted
    assert all(r.passed for r in recs)
    recs2, _ = sweep("E1", qs=(25,), samples=2, seed=7)
    assert [r.to_json_dict() for r in recs] == [r.to_json_dict() for r in recs2]


def test_sweep_empty_range():
    recs, exhausted = sweep("E1", qs=(), samples=1, seed=0)
    assert recs == [] and not exhausted
    # no samples: nothing audited, and no corner probe on a missing matrix
    assert sweep("E1", qs=(25,), samples=0, seed=0) == ([], False)


def test_sweep_budget_marker():
    recs, exhausted = sweep("E1", qs=(25, 49), samples=2, seed=1, budget=5)
    assert exhausted and len(recs) == 5


# sha256 of each family's default corpus_cells() as sorted-key JSON
CORPUS_SHA256 = {
    "E1": "1ab820c671fe2805147d4e333985021299932561dfc78dabcbcb8310ba61e773",
    "E2": "1ab820c671fe2805147d4e333985021299932561dfc78dabcbcb8310ba61e773",
    "E3": "5fdf37567b581ab5b9aaf957f1d97fd9b9d9bb3637d65ecf26d814384e5d836c",
    "E4": "a6b218fa51f054b770f2634b4c6cab42b8889dc3a99841d9eeab427c98f0bbba",
    "H1": "fa1931a9e99dc5289b21949268be3a6e235409e179905469119c583b0064d752",
    "H2": "fa1931a9e99dc5289b21949268be3a6e235409e179905469119c583b0064d752",
    "H3": "af56e84c3846175fd119c0f1f472552be8485069543d2fb8c969df7a36250da5",
    "H4": "4425b76d43af0e303638b87836f261986aeb5c8f7c2410e7d709d2a96f056bd0",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_default_corpus_pinned(family):
    cells = corpus_cells(family)
    text = json.dumps(cells, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_SHA256[family]
    built = 0
    for q, k, l, shifts in cells:
        cell = FamilyParams(family=family, q=q, k=k, l=l, **shifts)
        try:
            alpha = make_alpha(cell)
        except DistinctnessViolation:
            continue
        assert len(alpha) == cell.length, (q, k, l, shifts)
        built += 1
    assert built


def _records_sha256(recs):
    text = json.dumps([r.to_json_dict() for r in recs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def all_family_records():
    """The records of sweep(f, samples=3, seed=5) for every family, as one
    list."""
    return [r for f in FAMILIES for r in sweep(f, samples=3, seed=5)[0]]


def test_all_family_sweep_digest(all_family_records):
    # the all-family digest quoted in ROADMAP
    assert len(all_family_records) == 3950
    assert _records_sha256(all_family_records) == (
        "337ed6a9e00675ef5bd24523747855e7c50ecd6f12c17f29950d97959277acbc")


def record_spec(record):
    """The spec an audit record was made for, and its inner product."""
    params = dict(record.params)
    family, q = params["family"], params["q"]
    ctx = family_ctx(family, q)
    params["a"] = Matrix.from_strs(ctx, params.pop("A"))
    inner = HERMITIAN if family in HERMITIAN_FAMILIES else EUCLIDEAN
    return build_spec(FamilyParams(**params)), inner


def test_every_all_family_hull_is_the_gram_rank_hull(all_family_records):
    # each audited hull, from the shared point Grams and the l-row
    # residues, against k - rank of the whole Gram; CI checks the same
    # records against hull_dim_bruteforce
    for record in all_family_records:
        spec, inner = record_spec(record)
        assert record.computed_hull == \
            spec.k - rank(spec_gram(spec, inner)), record.params


def test_sweep_shares_the_power_sums_across_tail_widths(monkeypatch):
    # the cells of one (q, k) that differ only in l audit the same points,
    # so a sweep takes their power sums once per set of points
    calls = Counter()
    point_rows = hull._point_rows

    def counted(spec, sigma):
        calls["sums"] += 1
        return point_rows(spec, sigma)

    monkeypatch.setattr(hull, "_point_rows", counted)
    recs, _ = sweep("E1", qs=(25, 49), samples=2, seed=7)
    cells = {(r.params["q"], r.params["k"], r.params["l"],
              r.params["delta"]) for r in recs}
    point_sets = {cell[:2] + cell[3:] for cell in cells}
    assert len(point_sets) < len(cells)
    assert calls["sums"] == len(point_sets)


# sha256 of each family sweep's sorted-key JSON records
SWEEP_SHA256 = {
    "E1": "c90972da52eab64d755bf9c47ea0d49ffbd2f15617d25fe6a110a6f93ebe1f1f",
    "E2": "9cc83ba1b86ffae1ca597ebeccabfdbd6ad5f1aa0f8cc02ecaa4f6c3a51ad225",
    "E3": "91de5b8dbc5d43a96f9c328650c52be45f62ff4bd8ef17be37510606362a73d7",
    "E4": "f8989f48f895ec56aca35e0f0126ba91fe9d5f2f7471c029a9b5be6d7fa04562",
    "H1": "ba4c6e0a1542e06e0d32331fcff500e849a49472c380a9a322fadf1bc887976b",
    "H2": "a7a06260900768cb727cbb8e419cd04dba2128a2a908ccd34ba42d867ac62251",
    "H3": "d0801b51ab82b7bba2013ca5458a574a5d633cf7174712b544006354f0df0401",
    "H4": "b3e90fd3cef980a829dc5a4d55c88045b36e530a98961f8d3bf4211099a57849",
}


@pytest.mark.parametrize("family,digest",
                         [(f, SWEEP_SHA256[f]) for f in EUCLIDEAN_FAMILIES],
                         ids=EUCLIDEAN_FAMILIES)
def test_family_audits_all_pass_euclidean(family, digest):
    recs, _ = sweep(family, qs=(25, 81), samples=2, seed=11)
    assert recs, family
    bad = [r for r in recs if not r.passed]
    assert not bad, bad[:3]
    assert _records_sha256(recs) == digest


@pytest.mark.parametrize("family,digest",
                         [(f, SWEEP_SHA256[f]) for f in HERMITIAN_FAMILIES],
                         ids=HERMITIAN_FAMILIES)
def test_family_audits_all_pass_hermitian(family, digest):
    recs, _ = sweep(family, qs=(3, 5, 9), samples=2, seed=13)
    assert recs, family
    bad = [r for r in recs if not r.passed]
    assert not bad, bad[:3]
    assert _records_sha256(recs) == digest


def test_h1_sweep_over_the_largest_field(monkeypatch):
    # GF(1019^2) starts filling its tables on demand; this sweep reads
    # 4,263 distinct Zech entries, fewer than the field's break-even count
    # (4,936), so a count of 1,000 makes the field build its whole tables
    # part way through, and the records must not notice.  A fresh field
    # cache keeps the tens of MB from outliving the test.
    monkeypatch.setattr(gf, "_CTX_CACHE", {})
    monkeypatch.setattr(gf, "_break_even", lambda q, m: 1000)
    recs, _ = sweep("H1", qs=(1019,), samples=1, seed=0)
    assert len(recs) == 48
    assert _records_sha256(recs) == (
        "b3484ec951a032fecd13b94b1fb3f7eeeb9c2e068bdcdd4575d85eafda238404")
    assert type(field_new(1019, 2).zech) is list


@pytest.mark.parametrize("family", FAMILIES)
def test_corner_witness_is_the_gram_entry(family):
    # on every half-tail corpus cell the predicted corner k*X + sum a_1i^e
    # is entry (k-l, k-l) of the Gram matrix, and the corner target of the
    # sweep's probe makes that entry vanish
    inner = EUCLIDEAN if family in EUCLIDEAN_FAMILIES else HERMITIAN
    rng = random.Random(17)
    checked = zeroed = 0
    for q, k, l, shifts in corpus_cells(family):
        if 2 * l != k:
            continue
        ctx = family_ctx(family, q)
        p = FamilyParams(family=family, q=q, k=k, l=l,
                         a=sample_invertible(ctx, l, rng), **shifts)
        points = CellPoints(p)
        corner = predict(p, points).witnesses.get("corner")
        if corner is None:
            continue
        g = gram(build_generator(build_spec(p)), inner)
        assert ctx.fmt(g.data[k - l][k - l]) == corner, (q, k, l, shifts)
        checked += 1
        a = sample_first_row_sum(ctx, l, corner_target(points), rng,
                                 inner == HERMITIAN)
        if a is None:
            continue
        p0 = FamilyParams(family=family, q=q, k=k, l=l, a=a, **shifts)
        g0 = gram(build_generator(build_spec(p0)), inner)
        assert g0.data[k - l][k - l] == ZERO, (q, k, l, shifts)
        assert predict(p0).witnesses["corner"] == "0"
        zeroed += 1
    assert checked and zeroed == checked, (checked, zeroed)


def test_cell_points_refuse_another_cell():
    ctx = family_ctx("E1", 81)
    points = CellPoints(FamilyParams(family="E1", q=81, k=5, l=2, delta=2))
    p = FamilyParams(family="E1", q=81, k=5, l=2, a=a22(ctx), delta=2)
    assert audit(p, points) == audit(p)
    with pytest.raises(GrlError, match="not from this cell"):
        audit(replace(p, delta=3), points)
    with pytest.raises(GrlError, match="not from this cell"):
        predict(replace(p, delta=3), points)


def test_predict_and_audit_without_a():
    # the E1 ladder reads the Gram corner of A, the H1 diagonal regime
    # does not; an audit always needs A for its hull
    with pytest.raises(GrlError, match="params has no A"):
        predict(FamilyParams("E1", 81, 4, 2, delta=1))
    h1 = FamilyParams("H1", 9, 5, 3, delta=1)
    pred = predict(h1)
    assert (pred.claim, pred.value) == ("hull_le", 3)
    assert "corner" not in pred.witnesses
    for params in (FamilyParams("E1", 81, 4, 2, delta=1), h1):
        with pytest.raises(GrlError, match="an audit needs an invertible"):
            audit(params)


def test_describe_a_cell_with_and_without_a():
    # a cell is described by family, q, k, l and shifts; A, once drawn,
    # sits between l and the shifts, in the order audit records print
    cell = FamilyParams("E1", 81, 4, 2, delta=1)
    assert cell.describe() == {"family": "E1", "q": 81, "k": 4, "l": 2,
                               "delta": 1}
    h3 = FamilyParams("H3", 9, 4, 2, s=1, t=2)
    assert list(h3.describe()) == ["family", "q", "k", "l", "s", "t"]
    with_a = replace(cell, a=a22(cell.ctx)).describe()
    assert list(with_a) == ["family", "q", "k", "l", "A", "delta"]
    assert with_a["A"] == a22(cell.ctx).to_strs()


def test_audit_refuses_a_singular_or_misshapen_a_after_the_first():
    # the cell's PointGram is made from the first A's spec; a later A
    # builds no spec, and the audit still proves it invertible and l x l
    cell = FamilyParams(family="E1", q=81, k=5, l=2, delta=2)
    points = CellPoints(cell)
    audit(replace(cell, a=a22(cell.ctx)), points)
    for a in (Matrix(cell.ctx, [[0, 0], [0, 0]]),
              Matrix.identity(cell.ctx, 3)):
        with pytest.raises(GrlError, match="an audit needs an invertible "
                                           "2 x 2 tail matrix A"):
            audit(replace(cell, a=a), points)


def test_audit_cell_builds_at_most_one_spec(monkeypatch):
    # a cell's audits share one PointGram, so the spec of the first A
    # with a claim is the only GrlSpec a cell builds
    specs = Counter()
    post_init = GrlSpec.__post_init__

    def counted(self):
        specs[self.l] += 1
        post_init(self)

    monkeypatch.setattr(GrlSpec, "__post_init__", counted)
    cell = FamilyParams(family="E1", q=81, k=4, l=2, delta=2)
    records = []
    assert not audit_cell(cell, random.Random(1), 5, records, 10 ** 6)
    assert len(records) == 6
    assert specs == {2: 1}


def _first_rows_by_norm_sum(ctx, e):
    """A first row (x, y) for each value x^e + y^e can take."""
    els = [ZERO] + list(ctx.nonzero_elements())
    rows = {}
    for x in els:
        for y in els:
            rows.setdefault(ctx.add(ctx.pow(x, e), ctx.pow(y, e)), (x, y))
    return rows


def _without_corner(pred):
    w = {key: val for key, val in pred.witnesses.items()
         if key not in ("corner", "theta")}
    return pred.claim, pred.value, pred.clause, w


@pytest.mark.parametrize("family", FAMILIES)
def test_prediction_reads_only_the_corner_class(family):
    # on every default-corpus cell, an A with each corner value the cell's
    # first rows reach gets its class's claim, value, clause and witnesses
    # (the corner and theta strings apart); predict reads A only through
    # its first row, so the rest of A is left zero
    hermitian = family in HERMITIAN_FAMILIES
    rows = {}
    for q, k, l, shifts in corpus_cells(family):
        ctx = family_ctx(family, q)
        if q not in rows:
            rows[q] = _first_rows_by_norm_sum(ctx, 1 + q if hermitian else 2)
        cell = FamilyParams(family=family, q=q, k=k, l=l, **shifts)
        points = CellPoints(cell)
        # -k X; None where there is no corner: k must divide q-1 and the
        # blocks must fit
        corner_cell = (q - 1) % k == 0 and precondition_gap(cell)[0] is None
        target = corner_target(points) if corner_cell else None
        for norm_sum, (a11, a12) in rows[q].items():
            first = [a11, a12] + [ZERO] * (l - 2)
            a = Matrix(ctx, [first] + [[ZERO] * l for _ in range(l - 1)])
            pred = predict(replace(cell, a=a))
            corner = None if target is None else ctx.sub(norm_sum, target)
            assert _without_corner(pred) == _without_corner(
                points.prediction(corner == ZERO)), (q, k, l, shifts)
            if corner is None:
                assert "corner" not in pred.witnesses, (q, k, l, shifts)
            elif "corner" in pred.witnesses:
                assert pred.witnesses["corner"] == ctx.fmt(corner)


@pytest.mark.parametrize("cell,clause", [
    (FamilyParams(family="E1", q=81, k=5, l=3, delta=1),
     "tail wider than k/2"),
    (FamilyParams(family="H3", q=3, k=4, l=2, s=4, t=1),
     "shift difference valuation in N_l"),
], ids=["E1-wide-tail", "H3-N_l"])
def test_audit_cell_refuses_a_cell_without_a_claim_before_any_draw(cell,
                                                                   clause):
    rng, records = random.Random(5), []
    state = rng.getstate()
    with pytest.raises(NoClaim, match=f"no theorem claim applies: {clause}"):
        audit_cell(cell, rng, 5, records, 10 ** 6)
    assert rng.getstate() == state and records == []


def test_sampled_a_is_proved_invertible_once(monkeypatch):
    # the samplers prove rank(A) = l, and the spec an audit builds on that
    # A reads the proof A carries instead of eliminating again
    cell = FamilyParams(family="E1", q=81, k=4, l=2, delta=2)
    ctx, rng = cell.ctx, random.Random(3)
    mats = [sample_invertible(ctx, 2, rng),
            sample_first_row_sum(ctx, 2, corner_target(CellPoints(cell)), rng,
                                 False)]

    def eliminate(*args):
        raise AssertionError("rank(A) proved a second time")

    monkeypatch.setattr(linalg, "echelon", eliminate)
    for a in mats:
        assert rank(a) == 2
        assert build_spec(replace(cell, a=a)).a is a
    monkeypatch.undo()
    # a matrix carries no proof until its own rank is computed
    singular = Matrix(ctx, [[0, 0], [0, 0]])
    with pytest.raises(InvariantViolation, match="A must be invertible"):
        build_spec(replace(cell, a=singular))


@pytest.mark.parametrize("k,audits", [(5, 5), (4, 6)],
                         ids=["narrow-tail", "half-tail"])
def test_every_audit_predicts_through_predict(monkeypatch, k, audits):
    # each audit attempt of a sweep cell runs the module function
    # families.predict once, the traced name of the clause ladders, and
    # the cell derives the blocks' share X of its Gram corner at most once
    # (the half-width tail reads it for its aimed draw and every audit)
    calls = Counter()
    for name in ("predict", "audit"):
        def counted(*args, _fn=getattr(families, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(families, name, counted)

    class CountedPoints(CellPoints):
        @property
        def x(self):
            calls["x"] += self._x is None
            return CellPoints.x.fget(self)

    monkeypatch.setattr(families, "CellPoints", CountedPoints)
    cell = FamilyParams(family="E1", q=81, k=k, l=2, delta=2)
    records = []
    assert not audit_cell(cell, random.Random(1), 5, records, 10 ** 6)
    assert len(records) == audits
    assert calls == {"audit": audits, "predict": audits, "x": 1}
