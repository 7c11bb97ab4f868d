"""Acceptance suite: one test per criterion, printing one line each.

Every criterion is asserted exactly; where a source claim holds only
under a stated condition, the test asserts it under that condition and
asserts the proven obstruction elsewhere:

* A.7 is checked as AMDS-or-NMDS, since its dual defect is also 1.
* The B.4 exception row (s,t)=(5,2), l=3 is checked as stated under the
  generator g^25 of GF(13^2) (minimal polynomial x^2+9x+2) and as
  [15,6,9] AMDS under the pinned Conway generator.
* Of the four Hermitian attainability sets, H1 and H3 are checked at
  hull 3; H2 is checked at hull 0 under every primitive element of
  GF(11^2), and H4 against its structure-entry bound hull <= 1.
* The non-GRS claim is checked on the 31 rows with k > l and n > k;
  A.1 and B.1(1), with n = k, are checked as GRS. It does not hold for
  every GRL code with n > k > l (tests/test_nongrs.py has a GRS one).

The evidence for the last three items is in docs/decisions.md.
"""

import random
from collections import Counter
from dataclasses import replace
from itertools import product
from math import gcd

import pytest

from conftest import spec_hull
from grlcodes.appendix import load_rows
from grlcodes.classify import classify, min_distance
from grlcodes.counting import (brute_quadric_count, count_nf, count_nf_star,
                               hull1_count_bound)
from grlcodes.eaqecc import derive
from grlcodes.families import (FAMILIES, EUCLIDEAN_FAMILIES, CellPoints,
                               FamilyParams, audit, build_spec, diag_powers,
                               family_ctx, sample_invertible, sweep)
from grlcodes.gf import ZERO, field_new
from grlcodes.grl import GrlSpec, build_generator
from grlcodes.hull import (EUCLIDEAN, HERMITIAN, dual_generator,
                           hull_dim_bruteforce, spec_gram)
from grlcodes.linalg import Matrix, rank
from grlcodes.nongrs import certify, nongrs_certificate
from grlcodes.oracles import exhaustive_grs_check, schur_square_dim


def report_line(name, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {mark} {detail}")


def row_by_id(rows, rid):
    return next(r for r in rows if r.id == rid)


# -- criterion 1: appendix A reproduction (exact) --

CRIT1 = {
    "A.1": (7, 5, 3, "MDS"),
    "A.2": (12, 8, 4, "NMDS"),
    "A.3": (16, 12, 4, "NMDS"),
    "A.4": (13, 8, 5, "NMDS"),
    "A.5": (12, 5, 7, "NMDS"),
    "A.6(1,3)": (10, 4, 6, "NMDS"),
    "A.6(2)": (10, 4, 7, "MDS"),
    "A.7": (18, 8, 10, "AMDS-or-NMDS"),  # source claims AMDS = defect 1
    "A.8": (14, 6, 8, "NMDS"),
}


def test_criterion_1_appendix_a(appendix_results):
    results = appendix_results
    problems = []
    for rid, (n, k, d, label) in CRIT1.items():
        r = results[rid]
        c = r.computed
        ok = (c["n"], c["k"], c["d"]) == (n, k, d) and c["lcd"]
        if label == "AMDS-or-NMDS":
            ok = ok and (n + 1 - k - d) == 1 and c["label"] in ("AMDS", "NMDS")
        else:
            ok = ok and c["label"] == label
        if not ok:
            problems.append((rid, c))
    report_line("criterion 1 (appendix A, 9 rows, exact)", not problems,
                f"{len(CRIT1) - len(problems)}/{len(CRIT1)} rows")
    assert not problems, problems


# -- criterion 2: appendix B reproduction (exact) --

def test_criterion_2_appendix_b(appendix_results):
    results = appendix_results
    problems = []

    def check(rid, n, k, d, label=None):
        c = results[rid].computed
        ok = (c["n"], c["k"], c["d"]) == (n, k, d) and c["lcd"]
        if label:
            ok = ok and c["label"] == label
        if not ok:
            problems.append((rid, c))

    check("B.1(1)", 10, 8, 3, "MDS")
    check("B.1(2)", 12, 8, 4, "NMDS")
    check("B.3", 13, 8, 5, "NMDS")
    for s, t in ((4, 1), (5, 2), (10, 1), (11, 2), (28, 1)):
        check(f"B.4(s={s},t={t},l=2)", 14, 6, 8, "NMDS")
        if (s, t) != (5, 2):
            check(f"B.4(s={s},t={t},l=3)", 15, 6, 9, "NMDS")
    for d in (2, 3, 6, 8):
        check(f"B.5(delta={d})", 12, 5, 7, "NMDS")
    for d in range(1, 7):
        check(f"B.6(delta={d})", 5 * (d + 1) + 2, 5, 5 * d + 2, "NMDS")
    report_line("criterion 2 (appendix B rows, exact)", not problems,
                "23/24 criterion rows (exception row tested separately)")
    assert not problems, problems


def reexpress(spec, u):
    """The spec's g^e table read with the primitive element g^u in place
    of g: every nonzero entry g^e becomes g^(u*e)."""
    ctx = spec.ctx

    def m(x):
        return x if x == ZERO else ctx.element(u * x)

    return GrlSpec(ctx=ctx, alpha=[m(x) for x in spec.alpha],
                   v=[m(x) for x in spec.v],
                   a=Matrix(ctx, [[m(x) for x in row] for row in spec.a.data]),
                   k=spec.k)


def min_poly(ctx, a):
    """Coefficients over GF(p), constant first, of the minimal polynomial
    x^2 - (a + a^p) x + a^(p+1) of a in GF(p^2) outside GF(p)."""
    conj = ctx.frob(a)
    coeffs = [ctx.to_coeffs(c) for c in
              (ctx.mul(a, conj), ctx.neg(ctx.add(a, conj)), ctx.one())]
    assert all(c[1] == 0 for c in coeffs)
    return [c[0] for c in coeffs]


B4_EXCEPTION = "B.4(s=5,t=2,l=3)"
B4_SOURCE_GENERATOR = 25  # g^25 and its conjugate g^157 give [15,6,8]


def test_criterion_2_b4_exception_as_stated():
    """The documented exception (s,t)=(5,2), l=3 -> [15,6,8] Hermitian LCD.

    The row's table is written in powers of a generator, so its claim
    depends on which primitive element of GF(13^2) that is.  Of the 48,
    only g^25 and its conjugate g^157 (minimal polynomial x^2+9x+2)
    give [15,6,8]; under g^25 the nine other B.4 rows keep their stated
    parameters, so the claim is asserted exactly as stated there.  Under
    the pinned Conway generator (x^2+12x+2) the row is [15,6,9] Hermitian
    LCD AMDS, still the only non-NMDS row among the five l=3 rows (by
    dual defect instead of distance).  See docs/decisions.md.
    """
    rows = {r.id: r for r in load_rows("B") if r.id.startswith("B.4")}
    row = rows[B4_EXCEPTION]
    ctx = row.spec.ctx
    src_spec = reexpress(row.spec, B4_SOURCE_GENERATOR)
    src = classify(src_spec)
    pinned = classify(row.spec)

    def stated_under_source_generator(r):
        rep = classify(reexpress(r.spec, B4_SOURCE_GENERATOR))
        claim = (14, 6, 8) if r.spec.l == 2 else (15, 6, 9)
        return ((rep.n, rep.k, rep.d) == claim and rep.label == "NMDS"
                and rep.hull_h.is_lcd)

    non_nmds_l3 = sorted(rid for rid, r in rows.items()
                         if r.spec.l == 3 and classify(r.spec).label != "NMDS")
    checks = {
        "pinned g has the Conway minimal polynomial x^2+12x+2":
            min_poly(ctx, ctx.gen()) == ctx.modulus == [2, 12, 1],
        "g^25 has minimal polynomial x^2+9x+2":
            min_poly(ctx, ctx.element(B4_SOURCE_GENERATOR)) == [2, 9, 1],
        "under g^25: [15,6,8] Hermitian LCD, not NMDS":
            (src.n, src.k, src.d) == (15, 6, 8) and src.hull_h.is_lcd
            and src.label != "NMDS",
        "under g^25: parity-check search gives d = 8":
            min_distance(build_generator(src_spec)) == src.d == 8,
        "under g^25: the nine other B.4 rows as stated":
            len(rows) == 10 and all(stated_under_source_generator(r)
                                    for rid, r in rows.items()
                                    if rid != B4_EXCEPTION),
        "pinned: [15,6,9] Hermitian LCD AMDS":
            (pinned.n, pinned.k, pinned.d) == (15, 6, 9)
            and pinned.hull_h.is_lcd
            and pinned.label == "AMDS",
        "pinned: parity-check search gives d = 9":
            min_distance(build_generator(row.spec)) == pinned.d == 9,
        "pinned: the only non-NMDS l=3 row":
            non_nmds_l3 == [B4_EXCEPTION],
    }
    failed = [name for name, ok in checks.items() if not ok]
    report_line("criterion 2 exception row (s,t)=(5,2) as stated", not failed,
                f"g^25 gives [{src.n},{src.k},{src.d}] {src.label}; pinned g "
                f"gives [{pinned.n},{pinned.k},{pinned.d}] {pinned.label}")
    assert not failed, failed


# -- criterion 3: Hermitian hull-bound attainability (exact) --

ATTAIN_SETS = [
    ("H1", 9, 5, 3, {"delta": 1}, (2, 3, 4)),
    ("H2", 11, 6, 3, {"delta": 1}, (4, 5, 6)),
    ("H3", 9, 5, 3, {"s": 9, "t": 1}, (6, 7, 8)),
    ("H4", 9, 5, 3, {"delta": 3}, (8, 5, 8)),
]


def attain_spec(fam, q, k, l, shifts, exps):
    ctx = family_ctx(fam, q)
    return build_spec(FamilyParams(family=fam, q=q, k=k, l=l,
                                   a=diag_powers(ctx, exps), **shifts))


def attained_hull(fam, q, k, l, shifts, exps):
    return spec_hull(attain_spec(fam, q, k, l, shifts, exps),
                     HERMITIAN).hull_dim


def hermitian_hulls(spec):
    """(Gram-rank hull, intersection-oracle hull) of the spec's code."""
    return (spec_hull(spec, HERMITIAN).hull_dim,
            hull_dim_bruteforce(build_generator(spec), HERMITIAN))


def test_criterion_3_hull_bound_attainability():
    """The Hermitian bound hull <= l = 3 at the four listed sets.

    H1 and H3 attain it as stated.  H2 gives hull 0 under every one of
    the 32 primitive elements g of GF(11^2): tail Gram entry r = 3, 4, 5
    is g^(12r) (6 + g^12), and g^12 = N(g) is a primitive root mod 11
    while -6 = 5 is a square, so none cancels.  The bound is attained
    at the same (q,k,l,delta) with another diagonal (companion test).
    H4 cannot attain it for any invertible A: k = 5 divides q+1 = 10, so
    the Gram is diagonal on the Reed-Solomon part, two of the three tail
    entries sum to zero, and rank(D_tail + A A^H) >= 2 caps the hull at
    1.  The test checks both obstructions, and every hull against the
    intersection oracle.  See docs/decisions.md.
    """
    hulls = {fam: attained_hull(fam, q, k, l, shifts, exps)
             for fam, q, k, l, shifts, exps in ATTAIN_SETS}

    h2 = attain_spec(*ATTAIN_SETS[1])
    n2 = h2.ctx.n
    h2_hulls = {u: hermitian_hulls(reexpress(h2, u))
                for u in range(1, n2) if gcd(u, n2) == 1}

    h4 = attain_spec(*ATTAIN_SETS[3])
    ctx, q, k, l = h4.ctx, h4.ctx.base_q, h4.k, h4.l

    def structure(r, c):
        acc = ZERO
        for x in h4.alpha:
            acc = ctx.add(acc, ctx.pow(x, r + c * q))
        return acc

    off_diagonal = [structure(r, c) for r in range(k) for c in range(k)
                    if r != c]
    diagonal = [structure(r, r) for r in range(k)]
    tail = diagonal[k - l:]
    # a middle entry cancelled by a norm: diag(1, a, 1) with N(a) = -D_33
    a_mid = next(x for x in ctx.nonzero_elements()
                 if ctx.mul(x, ctx.frob(x)) == ctx.neg(tail[1]))
    one = ctx.one()
    witness = Matrix(ctx, [[one, ZERO, ZERO], [ZERO, a_mid, ZERO],
                           [ZERO, ZERO, one]])
    rng = random.Random(303)
    tails = [h4.a, witness] + [sample_invertible(ctx, l, rng)
                               for _ in range(100)]
    h4_hulls = [hermitian_hulls(GrlSpec(ctx=ctx, alpha=h4.alpha, v=h4.v,
                                        a=a, k=k)) for a in tails]

    checks = {
        "H1 attains hull 3": hulls["H1"] == 3,
        "H3 attains hull 3": hulls["H3"] == 3,
        "H2: hull 0 under all 32 primitive elements, oracle agrees":
            len(h2_hulls) == 32 and set(h2_hulls.values()) == {(0, 0)},
        "H4: structure matrix diagonal on the RS part":
            all(x == ZERO for x in off_diagonal),
        "H4: structure entries (g^40, g^50, 0, g^70, 0)":
            [ctx.fmt(x) for x in diagonal] == ["g^40", "g^50", "0", "g^70",
                                               "0"],
        "H4: exactly two tail zeros": tail.count(ZERO) == 2,
        "H4: hull <= 1 for the stated and 101 other invertible A, "
        "oracle agrees":
            all(h == b <= 1 for h, b in h4_hulls),
        "H4: hull 1 attained": max(h for h, _ in h4_hulls) == 1,
    }
    failed = [name for name, ok in checks.items() if not ok]
    report_line("criterion 3 (hull bound attained, 4 sets)", not failed,
                f"stated hulls {hulls}; H2 max over generators "
                f"{max(h for h, _ in h2_hulls.values())}; H4 max over "
                f"{len(tails)} A {max(h for h, _ in h4_hulls)}")
    assert not failed, failed


def test_criterion_3_bounds_attainable_at_valid_parameters():
    # companion evidence: the <= l bounds are attained where possible
    assert attained_hull("H1", 9, 5, 3, {"delta": 1}, (2, 3, 4)) == 3
    assert attained_hull("H3", 9, 5, 3, {"s": 9, "t": 1}, (6, 7, 8)) == 3
    # H2 parameters from set 2, with a diagonal that does cancel
    assert attained_hull("H2", 11, 6, 3, {"delta": 1}, (7, 8, 9)) == 3
    # H4 with delta = 1 at base q = 5 (k = 6 | q+1): all tail entries
    # nonzero, so a cancelling diagonal exists; found by direct search
    ctx = family_ctx("H4", 5)
    found = None
    for c in range(ctx.n):
        h = attained_hull("H4", 5, 6, 2, {"delta": 1}, (c, (c + 4) % ctx.n))
        if h == 2:
            found = c
            break
    assert found is not None


# -- criterion 4: theorem soundness sweep, >= 2000 audits, zero failures --

def test_criterion_4_theorem_soundness_sweep():
    total = 0
    failures = []
    per_family = {}
    for fam in FAMILIES:
        recs, _ = sweep(fam, samples=5, seed=42)
        per_family[fam] = len(recs)
        total += len(recs)
        failures += [r for r in recs if not r.passed]
    ok = total >= 2000 and not failures
    report_line("criterion 4 (family audits)", ok,
                f"{total} audits, {len(failures)} failures, {per_family}")
    assert total >= 2000, per_family
    assert not failures, [f.to_json_dict() for f in failures[:3]]


# -- criterion 5: counting oracle equivalence + partition identities --

def test_criterion_5_counting_oracles():
    mismatches = []
    for q, m in ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)):
        ctx = field_new(q, m)
        for k in range(1, 5):
            tot, tot_star = 0, 0
            for c in ctx.elements():
                nf = count_nf(ctx, k, c)
                ns = count_nf_star(ctx, k, c)
                tot += nf
                tot_star += ns
                if nf != brute_quadric_count(ctx, k, c):
                    mismatches.append(("nf", ctx.q, k, ctx.fmt(c)))
                if ns != brute_quadric_count(ctx, k, c, nonzero_only=True):
                    mismatches.append(("nf*", ctx.q, k, ctx.fmt(c)))
            if tot != ctx.q ** k:
                mismatches.append(("partition", ctx.q, k))
            if tot_star != (ctx.q - 1) ** k:
                mismatches.append(("partition*", ctx.q, k))
    report_line("criterion 5 (counting vs enumeration, q<=13, k<=4)",
                not mismatches, "100% agreement" if not mismatches else "")
    assert not mismatches, mismatches[:5]


# -- criterion 6: hull oracle equivalence --

def test_criterion_6_hull_oracle_equivalence():
    checked = 0
    mismatches = []
    for row in load_rows("all"):
        g = build_generator(row.spec)
        for inner in ([EUCLIDEAN, HERMITIAN] if row.spec.ctx.m % 2 == 0
                      else [EUCLIDEAN]):
            if spec_hull(row.spec, inner).hull_dim != \
                    hull_dim_bruteforce(g, inner):
                mismatches.append((row.id, inner))
            checked += 1
    rng = random.Random(606)
    small = [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]
    specs_done = 0
    while specs_done < 500:
        p, m = small[specs_done % len(small)]
        ctx = field_new(p, m)
        els = list(ctx.nonzero_elements())
        k = rng.randint(2, 4)
        n = rng.randint(k, min(ctx.q, k + 3))
        l = rng.randint(2, k)
        alpha = rng.sample(list(ctx.elements()), n)
        v = [rng.choice(els) for _ in range(n)]
        a = Matrix(ctx, [[rng.choice([ZERO] + els) for _ in range(l)]
                         for _ in range(l)])
        if rank(a) != l:
            continue
        spec = GrlSpec(ctx=ctx, alpha=alpha, v=v, a=a, k=k)
        g = build_generator(spec)
        for inner in ([EUCLIDEAN, HERMITIAN] if m % 2 == 0 else [EUCLIDEAN]):
            if spec_hull(spec, inner).hull_dim != \
                    hull_dim_bruteforce(g, inner):
                mismatches.append(("random", specs_done, inner))
        specs_done += 1
        checked += 1
    report_line("criterion 6 (Gram hull vs intersection oracle)",
                not mismatches, f"{checked} codes checked")
    assert not mismatches, mismatches[:5]


# -- criterion 7: non-GRS certificates --

def test_criterion_7a_vandermonde_tail_is_grs():
    ctx = field_new(7)
    pts = [ctx.parse(s) for s in ("0", "1", "g^1", "g^2")]
    beta = [ctx.element(3), ctx.element(4)]
    a = Matrix(ctx, [[ctx.pow(b, r) for b in beta] for r in range(2)])
    spec = GrlSpec(ctx=ctx, alpha=pts, v=[ctx.one()] * 4, a=a, k=2)
    g = build_generator(spec)
    dim = schur_square_dim(g)
    verdict, _ = exhaustive_grs_check(g)
    ok = dim == 3 and verdict == "grs"
    report_line("criterion 7a (k=l Vandermonde tail is GRS at q=7)", ok,
                f"schur dim {dim}, exhaustive verdict {verdict}")
    assert ok


def test_criterion_7b_corpus_codes_are_non_grs(witness):
    """Every appendix row with n > k is non-GRS. A.1 and B.1(1) have n = k
    and l = 2: their duals are 2-dimensional MDS codes of length <= q,
    hence GRS, and so are they (docs/decisions.md, section 4)."""
    problems = []
    schur_checked = 0
    for row in load_rows("all"):
        spec = row.spec
        k, nn = spec.k, spec.length
        assert k > spec.l
        g = build_generator(spec)
        cert = nongrs_certificate(spec)
        witness(g, cert)
        want = "grs" if row.id in ("A.1", "B.1(1)") else "non_grs"
        if cert.verdict != want:
            problems.append((row.id, cert.verdict))
        if want == "grs":
            dual = certify(dual_generator(g, EUCLIDEAN))
            if (spec.n, nn - k, dual.verdict) != (k, 2, "grs"):
                problems.append((row.id, "dual is not a 2-dim GRS code"))
        g1 = build_generator(replace(spec, v=[0] * spec.n))
        # the Schur route distinguishes only for dimension >= 3: a
        # dimension-2 code has at most 3 = 2k-1 pairwise row products
        if 2 * k - 1 < nn and k >= 3:
            if schur_square_dim(g1) <= 2 * k - 1:
                problems.append((row.id, "primary schur bound not exceeded"))
            schur_checked += 1
        kd = nn - k
        if 2 * kd - 1 < nn and kd >= 3:
            if schur_square_dim(dual_generator(g1, EUCLIDEAN)) <= 2 * kd - 1:
                problems.append((row.id, "dual schur bound not exceeded"))
            schur_checked += 1
    report_line("criterion 7b (GRS verdicts with witnesses on the corpus)",
                not problems,
                f"A.1 and B.1(1) GRS, 31 codes non-GRS, "
                f"{schur_checked} Schur checks")
    assert not problems, problems


# -- criterion 8: EAQECC templates on audited family codes --

def family_length(fam, k, l, shifts):
    if fam in ("E1", "H1"):
        return k + l
    if fam in ("E2", "H2"):
        return k + 1 + l
    if fam in ("E3", "H3"):
        return 2 * k + l
    if fam == "E4":
        return 3 * k + l
    return (shifts["delta"] + 1) * k + l


def test_criterion_8_eaqecc_templates():
    rng = random.Random(88)
    problems = []
    checked = 0
    for fam in FAMILIES:
        qs = (25, 49) if fam in EUCLIDEAN_FAMILIES else (3, 5, 9)
        recs, _ = sweep(fam, qs=qs, samples=1, seed=7)
        sample = [r for r in recs
                  if r.params["k"] <= 8 and
                  family_length(fam, r.params["k"], r.params["l"],
                                r.params) <= 20]
        rng.shuffle(sample)
        for rec in sample[:12]:
            pr = rec.params
            ctx = family_ctx(fam, pr["q"])
            shifts = {key: pr[key] for key in ("delta", "s", "t")
                      if key in pr and pr[key] is not None}
            params = FamilyParams(family=fam, q=pr["q"], k=pr["k"], l=pr["l"],
                                  a=Matrix.from_strs(ctx, pr["A"]), **shifts)
            spec = build_spec(params)
            rep = classify(spec)
            inner = EUCLIDEAN if fam in EUCLIDEAN_FAMILIES else HERMITIAN
            hull = rep.hull_e if inner == EUCLIDEAN else rep.hull_h
            i = hull.hull_dim
            nn = family_length(fam, pr["k"], pr["l"], pr)
            prim, dual = derive(rep, inner)
            if rec.computed_hull != i:
                problems.append((fam, pr, "hull mismatch"))
            got = (prim.n, prim.k_q, prim.d, prim.c)
            if got != (nn, pr["k"] - i, rep.d, nn - pr["k"] - i):
                problems.append((fam, pr, "primary tuple", got))
            got = (dual.n, dual.k_q, dual.d, dual.c)
            if got != (nn, nn - pr["k"] - i, rep.d_dual, pr["k"] - i):
                problems.append((fam, pr, "dual tuple", got))
            if prim.c < 0 or dual.c < 0:
                problems.append((fam, pr, "negative entanglement cost"))
            checked += 1
    report_line("criterion 8 (EAQECC templates on audited codes)",
                not problems, f"{checked} codes across 8 families")
    assert checked >= 60
    assert not problems, problems[:3]


# -- criterion 9: E1 one-dimensional hulls over every invertible A --

def _invertible_2x2(ctx):
    els = list(ctx.elements())
    for a, b, c, d in product(els, repeat=4):
        m = Matrix(ctx, [[a, b], [c, d]])
        if rank(m) == 2:
            yield m


def criterion_9(q):
    """Audit E1 with k = 4, l = 2 on every invertible A, for every delta;
    print the criterion line and return the problems found.

    The hull is 1 exactly when the first row of A solves
    a_11^2 + a_12^2 = c = -k X (the Gram corner vanishes; each audit checks
    its A against that clause), which N_f(2, c) first rows and q^2 - q
    second rows per first row do; every other code is LCD.  Of those, the
    ones whose first row is all nonzero number N*(2, c) * (q^2 - q).  The
    cell's shared Gram part agrees with the full Gram on every A.  Tier-1
    runs q = 5 and q = 9; CI runs q = 13 as a step of its own.
    """
    ctx = family_ctx("E1", q)
    k, l = 4, 2
    mats = list(_invertible_2x2(ctx))
    problems = []
    if len(mats) != (q * q - 1) * (q * q - q):
        problems.append(("invertible A", len(mats)))
    hull1_counts, nonzero_counts = set(), set()
    for delta in range(1, q):
        cell = FamilyParams(family="E1", q=q, k=k, l=l, delta=delta)
        c = ctx.neg(ctx.mul(ctx.from_int(k), ctx.element(delta * k)))
        hull1 = count_nf(ctx, 2, c) * (q * q - q)
        points = CellPoints(cell)
        hulls = Counter()
        nonzero_rows = 0
        for a in mats:
            params = replace(cell, a=a)
            rec = audit(params, points)
            full = k - rank(spec_gram(build_spec(params), EUCLIDEAN))
            if not rec.passed or rec.computed_hull != full:
                problems.append((delta, a.to_strs(), rec.computed_hull, full))
            hulls[full] += 1
            if full == 1 and ZERO not in a.data[0]:
                nonzero_rows += 1
        if hulls != {1: hull1, 0: len(mats) - hull1}:
            problems.append((delta, "hulls", dict(hulls), hull1))
        if nonzero_rows != count_nf_star(ctx, 2, c) * (q * q - q):
            problems.append((delta, "all-nonzero first rows", nonzero_rows))
        hull1_counts.add(hulls[1])
        nonzero_counts.add(nonzero_rows)
    report_line(f"criterion 9 (E1 k=4 l=2 hull-1 count over every "
                f"invertible A, q={q})", not problems,
                f"{q - 1} deltas x {len(mats)} codes, hull 1 on "
                f"{'/'.join(map(str, sorted(hull1_counts)))} per delta, of "
                f"them {'/'.join(map(str, sorted(nonzero_counts)))} with an "
                f"all-nonzero first row, the rest LCD")
    return problems


@pytest.mark.parametrize("q", [5, 9])
def test_criterion_9_e1_hull1_count_over_every_invertible_a(q):
    problems = criterion_9(q)
    assert not problems, problems[:3]


# -- final bound property: enumerated count never exceeds the bound --

def test_hull1_count_bound_dominates_enumeration():
    ctx = field_new(5)
    k, l = 4, 2
    ok = True
    for delta in range(1, 5):
        for variant, nonzero in (("all", False), ("nonzero", True)):
            bound = hull1_count_bound(ctx, delta, l, variant)
            target = ctx.neg(ctx.mul(ctx.element(delta * k), ctx.from_int(k)))
            count = 0
            pool = list(ctx.nonzero_elements()) if nonzero \
                else list(ctx.elements())
            for a11, a12 in product(pool, repeat=2):
                if (a11, a12) == (ZERO, ZERO):
                    continue
                if ctx.add(ctx.mul(a11, a11), ctx.mul(a12, a12)) != target:
                    continue
                for a21 in ctx.elements():
                    for a22 in ctx.elements():
                        if rank(Matrix(ctx, [[a11, a12], [a21, a22]])) == 2:
                            count += 1
            if count > bound:
                ok = False
    report_line("one-dim-hull count bound (full enumeration at q=5, l=2)", ok)
    assert ok
